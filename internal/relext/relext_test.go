package relext

import (
	"context"
	"errors"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/textutil"
)

func vocabExtractor() *Extractor {
	return NewExtractor([]string{
		"corneal injury", "chemical burns", "keratitis", "eye diseases",
		"antibiotics", "infection", "amniotic membrane", "scarring",
	}, textutil.English)
}

// extractSentence finds e's relations within one sentence, the
// per-sentence step of Extract.
func extractSentence(e *Extractor, sentence string) []Relation {
	return aggregate(e.sentenceEvidence(sentence))
}

func firstRelation(t *testing.T, sentence string) Relation {
	t.Helper()
	rels := extractSentence(vocabExtractor(), sentence)
	if len(rels) == 0 {
		t.Fatalf("no relation in %q", sentence)
	}
	return rels[0]
}

func TestCausalActive(t *testing.T) {
	r := firstRelation(t, "Chemical burns cause corneal injury in most cases.")
	if r.Type != Causes || r.A != "chemical burns" || r.B != "corneal injury" {
		t.Errorf("got %v", r)
	}
	if len(r.Verbs) != 1 || r.Verbs[0] != "cause" {
		t.Errorf("verbs = %v", r.Verbs)
	}
}

func TestCausalPassiveFlipsDirection(t *testing.T) {
	r := firstRelation(t, "Corneal injury is often caused by chemical burns.")
	if r.Type != Causes {
		t.Fatalf("type = %v", r.Type)
	}
	if r.A != "chemical burns" || r.B != "corneal injury" {
		t.Errorf("passive direction wrong: %v", r)
	}
}

func TestTreats(t *testing.T) {
	r := firstRelation(t, "Antibiotics treat infection effectively.")
	if r.Type != Treats || r.A != "antibiotics" || r.B != "infection" {
		t.Errorf("got %v", r)
	}
}

func TestPrevents(t *testing.T) {
	r := firstRelation(t, "Amniotic membrane prevents scarring after surgery.")
	if r.Type != Prevents || r.A != "amniotic membrane" || r.B != "scarring" {
		t.Errorf("got %v", r)
	}
}

func TestHypernymIsA(t *testing.T) {
	r := firstRelation(t, "Keratitis is a form of eye diseases affecting the cornea.")
	if r.Type != Hypernym || r.A != "keratitis" || r.B != "eye diseases" {
		t.Errorf("got %v", r)
	}
}

func TestHypernymSuchAsReversed(t *testing.T) {
	// "A such as B" => B is-a A.
	r := firstRelation(t, "Eye diseases such as keratitis impair vision.")
	if r.Type != Hypernym || r.A != "keratitis" || r.B != "eye diseases" {
		t.Errorf("got %v", r)
	}
}

func TestHypernymAndOther(t *testing.T) {
	r := firstRelation(t, "Keratitis and other eye diseases were studied.")
	if r.Type != Hypernym || r.A != "keratitis" || r.B != "eye diseases" {
		t.Errorf("got %v", r)
	}
}

func TestAssociationFallback(t *testing.T) {
	r := firstRelation(t, "Infection affects scarring in wound models.")
	if r.Type != Associated {
		t.Errorf("got %v", r)
	}
}

func TestNoRelationWithoutPattern(t *testing.T) {
	rels := extractSentence(vocabExtractor(),
		"Keratitis presentations near infection wards were counted.")
	if len(rels) != 0 {
		t.Errorf("spurious relations: %v", rels)
	}
}

func TestGapTooLong(t *testing.T) {
	rels := extractSentence(vocabExtractor(),
		"Keratitis in several of the many very long and winding clinical observations causes infection.")
	if len(rels) != 0 {
		t.Errorf("over-long gap matched: %v", rels)
	}
}

func TestMultiwordMentionLongestMatch(t *testing.T) {
	e := NewExtractor([]string{"corneal injury", "injury"}, textutil.English)
	tokens := []string{"corneal", "injury", "worsened"}
	ms := e.findMentions(tokens)
	if len(ms) != 1 || ms[0].term != "corneal injury" {
		t.Errorf("mentions = %v", ms)
	}
}

func TestExtractCorpusAggregates(t *testing.T) {
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "Chemical burns cause corneal injury. Antibiotics treat infection."},
		{ID: "2", Text: "Severe chemical burns cause corneal injury in workers."},
		{ID: "3", Text: "Chemical burns caused corneal injury after the accident."},
	})
	c.Build()
	rels, err := vocabExtractor().Extract(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) < 2 {
		t.Fatalf("relations = %v", rels)
	}
	// The thrice-supported causal relation ranks first.
	if rels[0].Type != Causes || rels[0].Evidence != 3 {
		t.Errorf("top relation = %v", rels[0])
	}
	if rels[0].Example == "" {
		t.Error("missing example sentence")
	}
	// Verb inflections are collected.
	if len(rels[0].Verbs) != 2 { // cause, caused
		t.Errorf("verbs = %v", rels[0].Verbs)
	}
}

func TestExtractorEmptyVocab(t *testing.T) {
	e := NewExtractor(nil, textutil.English)
	if rels := extractSentence(e, "Anything causes something."); len(rels) != 0 {
		t.Errorf("empty vocab extracted %v", rels)
	}
}

// TestExtractCancelled: a cancelled context stops the extraction
// before its first document and returns the context's error.
func TestExtractCancelled(t *testing.T) {
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "1", Text: "Chemical burns cause corneal injury."})
	c.Build()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rels, err := vocabExtractor().Extract(ctx, c)
	if !errors.Is(err, context.Canceled) || rels != nil {
		t.Fatalf("Extract(cancelled) = %v, %v; want nil, context.Canceled", rels, err)
	}
}
