package main

import (
	"context"
	"path/filepath"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/termex"
	"bioenrich/internal/textutil"
)

func writeFixtures(t *testing.T) (corpPath, ontPath string) {
	t.Helper()
	dir := t.TempDir()
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "The corneal injury healed. Corneal injury treatment works."},
		{ID: "2", Text: "Severe corneal injury and corneal ulcer were studied."},
	})
	c.Build()
	corpPath = filepath.Join(dir, "c.json")
	if err := c.Save(corpPath); err != nil {
		t.Fatal(err)
	}
	o := ontology.New("t")
	if _, err := o.AddConcept("D1", "corneal ulcer"); err != nil {
		t.Fatal(err)
	}
	ontPath = filepath.Join(dir, "o.json")
	if err := o.Save(ontPath); err != nil {
		t.Fatal(err)
	}
	return corpPath, ontPath
}

func TestRunAllMeasures(t *testing.T) {
	corpPath, ontPath := writeFixtures(t)
	for _, m := range termex.Measures {
		if err := run(context.Background(), corpPath, ontPath, m, 5); err != nil {
			t.Errorf("measure %s: %v", m, err)
		}
	}
}

func TestRunWithoutOntology(t *testing.T) {
	corpPath, _ := writeFixtures(t)
	if err := run(context.Background(), corpPath, "", termex.CValue, 5); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), "", "", termex.CValue, 5); err == nil {
		t.Error("missing corpus accepted")
	}
	if err := run(context.Background(), "/no/such/file.json", "", termex.CValue, 5); err == nil {
		t.Error("missing file accepted")
	}
	corpPath, _ := writeFixtures(t)
	if err := run(context.Background(), corpPath, "", "bogus", 5); err == nil {
		t.Error("unknown measure accepted")
	}
}
