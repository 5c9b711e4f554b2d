package relext

import (
	"context"
	"testing"
)

func TestGenerateRelationCorpus(t *testing.T) {
	opts := DefaultSynthOptions()
	opts.RelationsPerType = 4
	c, vocab, gold := GenerateRelationCorpus(opts)
	if c.NumDocs() == 0 {
		t.Fatal("empty corpus")
	}
	if len(vocab) != opts.Terms {
		t.Errorf("vocab = %d", len(vocab))
	}
	if len(gold) != 4*4 {
		t.Errorf("gold = %d relations", len(gold))
	}
	types := map[RelationType]int{}
	for _, g := range gold {
		types[g.Type]++
		if g.A == g.B {
			t.Error("self relation in gold")
		}
	}
	for _, typ := range []RelationType{Causes, Treats, Prevents, Hypernym} {
		if types[typ] != 4 {
			t.Errorf("%s count = %d", typ, types[typ])
		}
	}
}

func TestEvaluateHighRecall(t *testing.T) {
	opts := DefaultSynthOptions()
	opts.RelationsPerType = 6
	res, err := Evaluate(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overall.Recall() < 0.8 {
		t.Errorf("overall recall = %.3f (%s)", res.Overall.Recall(), res.Overall)
	}
	if res.Overall.Precision() < 0.8 {
		t.Errorf("overall precision = %.3f (%s)", res.Overall.Precision(), res.Overall)
	}
	for typ, conf := range res.PerType {
		if conf.TP+conf.FN == 0 {
			t.Errorf("type %s never evaluated", typ)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	a, err := Evaluate(context.Background(), DefaultSynthOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Evaluate(context.Background(), DefaultSynthOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Overall != b.Overall {
		t.Errorf("non-deterministic evaluation: %v vs %v", a.Overall, b.Overall)
	}
}
