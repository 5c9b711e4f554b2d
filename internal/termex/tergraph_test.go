package termex

import (
	"context"
	"errors"
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

// TestTeRGraphCancelled: a context cancelled after the scan stops
// TeRGraph's co-occurrence build with its error.
func TestTeRGraphCancelled(t *testing.T) {
	e := NewExtractor(termCorpus())
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The check on entry to Rank passes; the build's first check fails.
	if got, err := e.Rank(newCancelAfter(1), TeRGraph, 20); !errors.Is(err, context.Canceled) || got != nil {
		t.Errorf("Rank(TeRGraph, cancelled in scoring) = %v, %v; want nil, context.Canceled", got, err)
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
