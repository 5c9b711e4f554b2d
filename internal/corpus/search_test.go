package corpus

import (
	"testing"
)

func TestSearchRanksRelevantFirst(t *testing.T) {
	c := buildTestCorpus()
	hits := c.Search("corneal injury", 10)
	if len(hits) == 0 {
		t.Fatal("no hits")
	}
	// d1 mentions "corneal injury" three times (title + 2 body); it
	// must outrank d3, which mentions neither word.
	if hits[0].ID != "d1" {
		t.Errorf("top hit = %s, want d1 (%v)", hits[0].ID, hits)
	}
	for _, h := range hits {
		if h.ID == "d3" {
			t.Error("irrelevant doc d3 retrieved for 'corneal injury'")
		}
	}
	// Descending scores.
	for i := 1; i < len(hits); i++ {
		if hits[i].Score > hits[i-1].Score {
			t.Error("hits not sorted")
		}
	}
}

func TestSearchStopwordOnlyQuery(t *testing.T) {
	c := buildTestCorpus()
	if hits := c.Search("the of and", 5); hits != nil {
		t.Errorf("stopword query returned %v", hits)
	}
	if hits := c.Search("", 5); hits != nil {
		t.Errorf("empty query returned %v", hits)
	}
}

func TestSearchTopN(t *testing.T) {
	c := buildTestCorpus()
	if hits := c.Search("eye treatment", 1); len(hits) > 1 {
		t.Errorf("n=1 returned %d hits", len(hits))
	}
}
