package main

import (
	"path/filepath"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/textutil"
)

func writeCorpus(t *testing.T) string {
	t.Helper()
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "cold virus sneezing throat infection winter patients cough."},
		{ID: "2", Text: "cold therapy ice swelling inflammation muscle injuries packs."},
		{ID: "3", Text: "cold rhinovirus congestion sneezing throat symptoms children."},
		{ID: "4", Text: "cold compress ankle swelling pain cryotherapy tissue."},
	})
	c.Build()
	path := filepath.Join(t.TempDir(), "c.json")
	if err := c.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSenses(t *testing.T) {
	path := writeCorpus(t)
	if err := run(path, "cold", "direct", "ck", "bow", false, 1); err != nil {
		t.Fatal(err)
	}
	if err := run(path, "cold", "agglo", "fk", "graph", true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunSensesErrors(t *testing.T) {
	if err := run("", "", "direct", "fk", "bow", false, 1); err == nil {
		t.Error("missing args accepted")
	}
	path := writeCorpus(t)
	if err := run(path, "absentterm", "direct", "fk", "bow", false, 1); err == nil {
		t.Error("unknown term accepted")
	}
	if err := run(path, "cold", "bogus", "fk", "bow", false, 1); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run(path, "cold", "bogus", "fk", "bow", true, 1); err == nil {
		t.Error("unknown algorithm accepted at k = 1")
	}
	if err := run(path, "cold", "direct", "bogus", "bow", false, 1); err == nil {
		t.Error("unknown index accepted")
	}
	if err := run(path, "cold", "direct", "fk", "bogus", true, 1); err == nil {
		t.Error("unknown representation accepted")
	}
}
