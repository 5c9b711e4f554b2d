package recommend

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

func snapFor(t *testing.T, o *ontology.Ontology, lang textutil.Lang) *state.Snapshot {
	t.Helper()
	c := corpus.New(lang)
	c.Add(corpus.Document{ID: "1", Text: "seed document."})
	c.Build()
	return state.NewStore(c, o).Load()
}

// eyeOntology is a small linked hierarchy with synonyms — high
// acceptance, deep matches for corneal text.
func eyeOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New("eye")
	for _, c := range []struct {
		id   ontology.ConceptID
		pref string
	}{{"D1", "eye diseases"}, {"D2", "corneal diseases"}, {"D3", "corneal injury"}} {
		if _, err := o.AddConcept(c.id, c.pref); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddSynonym("D3", "corneal damage"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetParent("D2", "D1"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetParent("D3", "D2"); err != nil {
		t.Fatal(err)
	}
	return o
}

// plantOntology covers none of the corneal vocabulary.
func plantOntology(t *testing.T) *ontology.Ontology {
	t.Helper()
	o := ontology.New("plants")
	if _, err := o.AddConcept("P1", "crop rotation"); err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddConcept("P2", "soil nutrients"); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRankPrefersCoveringOntology(t *testing.T) {
	inputs := []Input{
		{Name: "plants", Snap: snapFor(t, plantOntology(t), textutil.English)},
		{Name: "eye", Snap: snapFor(t, eyeOntology(t), textutil.English)},
	}
	text := "the corneal injury progressed into chronic corneal diseases of the eye"
	scores, err := Rank(context.TODO(), inputs, text, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != 2 {
		t.Fatalf("got %d scores", len(scores))
	}
	if scores[0].Ontology != "eye" {
		t.Fatalf("top = %+v, want eye first", scores[0])
	}
	top := scores[0]
	if top.Coverage <= 0 || top.Coverage > 1 {
		t.Fatalf("coverage = %v", top.Coverage)
	}
	if top.MatchedTerms < 2 {
		t.Fatalf("matched terms = %d, want >= 2 (corneal injury, corneal diseases)", top.MatchedTerms)
	}
	if top.Detail <= 0 {
		t.Fatalf("detail = %v, want > 0 for non-root matches", top.Detail)
	}
	if top.Score <= scores[1].Score {
		t.Fatalf("eye score %v not above plants score %v", top.Score, scores[1].Score)
	}
	if top.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", top.Epoch)
	}
}

func TestRankGreedyLongestMatch(t *testing.T) {
	// "corneal injury" must consume two tokens as one term, not match
	// any shorter gram twice.
	o := eyeOntology(t)
	scores, err := Rank(context.TODO(), []Input{{Name: "eye", Snap: snapFor(t, o, textutil.English)}},
		"corneal injury", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := scores[0]
	if s.MatchedTerms != 1 || s.MatchedTokens != 2 {
		t.Fatalf("matched terms/tokens = %d/%d, want 1/2", s.MatchedTerms, s.MatchedTokens)
	}
	if s.Coverage != 1 {
		t.Fatalf("coverage = %v, want 1 (both content tokens annotated)", s.Coverage)
	}
}

func TestRankStopwordGramMatches(t *testing.T) {
	// A term containing stopwords still matches because grams come from
	// the full token stream, while coverage normalizes by content words.
	o := ontology.New("x")
	if _, err := o.AddConcept("C1", "diseases of the eye"); err != nil {
		t.Fatal(err)
	}
	scores, err := Rank(context.TODO(), []Input{{Name: "x", Snap: snapFor(t, o, textutil.English)}},
		"diseases of the eye", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].MatchedTerms != 1 {
		t.Fatalf("matched terms = %d, want 1", scores[0].MatchedTerms)
	}
	if scores[0].Coverage <= 0 {
		t.Fatalf("coverage = %v, want > 0", scores[0].Coverage)
	}
}

func TestRankTiesBreakByName(t *testing.T) {
	// Identical ontologies score identically; the tie must break on
	// name ascending.
	inputs := []Input{
		{Name: "zeta", Snap: snapFor(t, eyeOntology(t), textutil.English)},
		{Name: "alpha", Snap: snapFor(t, eyeOntology(t), textutil.English)},
	}
	scores, err := Rank(context.TODO(), inputs, "corneal injury", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scores[0].Ontology != "alpha" || scores[1].Ontology != "zeta" {
		t.Fatalf("tie order = %s, %s; want alpha, zeta", scores[0].Ontology, scores[1].Ontology)
	}
	if scores[0].Score != scores[1].Score {
		t.Fatalf("expected a tie, got %v vs %v", scores[0].Score, scores[1].Score)
	}
}

func TestRankEmptyInputs(t *testing.T) {
	scores, err := Rank(context.TODO(), nil, "corneal injury", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if scores == nil || len(scores) != 0 {
		t.Fatalf("scores = %#v, want empty non-nil", scores)
	}
	b, err := json.Marshal(scores)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[]" {
		t.Fatalf("JSON = %s, want []", b)
	}
}

func TestRankNoTokens(t *testing.T) {
	if _, err := Rank(context.TODO(), nil, "   ", Options{}); err == nil {
		t.Fatal("want error for empty text")
	}
}

func TestRankCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.TODO())
	cancel()
	inputs := []Input{{Name: "eye", Snap: snapFor(t, eyeOntology(t), textutil.English)}}
	if _, err := Rank(ctx, inputs, "corneal injury", Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
