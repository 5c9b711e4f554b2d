package termex

import (
	"context"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/textutil"
)

func TestTeRGraphScores(t *testing.T) {
	e := NewExtractor(termCorpus())
	ranked, err := e.Rank(context.Background(), TeRGraph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 {
		t.Fatal("no TeRGraph scores")
	}
	for _, st := range ranked {
		if st.Score < 0 {
			t.Errorf("negative TeRGraph score for %q: %v", st.Term, st.Score)
		}
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Score > ranked[i-1].Score {
			t.Fatal("TeRGraph ranking not descending")
		}
	}
}

func TestTeRGraphIsolatedTermLow(t *testing.T) {
	// A term in its own isolated document has no candidate neighbors
	// and must score lower than an equally frequent connected term.
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "keratitis near conjunctivitis appeared. keratitis near conjunctivitis returned."},
		{ID: "2", Text: "hermitword."},
		{ID: "3", Text: "hermitword."},
	})
	c.Build()
	e := NewExtractor(c)
	scores := scoresOf(t, e, TeRGraph)
	if scores["hermitword"] >= scores["keratitis"] {
		t.Errorf("isolated term %v >= connected term %v",
			scores["hermitword"], scores["keratitis"])
	}
}

func TestTeRGraphInMeasureList(t *testing.T) {
	found := false
	for _, m := range Measures {
		if m == TeRGraph {
			found = true
		}
	}
	if !found {
		t.Error("TeRGraph missing from Measures")
	}
}
