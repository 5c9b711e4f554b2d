package main

import (
	"context"
	"path/filepath"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

func TestRunSelftest(t *testing.T) {
	if err := run(context.Background(), "", "", 10, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunOnCorpus(t *testing.T) {
	dir := t.TempDir()
	o := ontology.New("t")
	for _, p := range []struct {
		id   ontology.ConceptID
		pref string
	}{{"A", "chemical burns"}, {"B", "corneal injury"}} {
		if _, err := o.AddConcept(p.id, p.pref); err != nil {
			t.Fatal(err)
		}
	}
	ontPath := filepath.Join(dir, "o.json")
	if err := o.Save(ontPath); err != nil {
		t.Fatal(err)
	}
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "1", Text: "Chemical burns cause corneal injury in workers."})
	c.Build()
	corpPath := filepath.Join(dir, "c.json")
	if err := c.Save(corpPath); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), corpPath, ontPath, 10, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingArgs(t *testing.T) {
	if err := run(context.Background(), "", "", 10, false); err == nil {
		t.Error("missing args accepted")
	}
}
