package senseind

import (
	"testing"

	"bioenrich/internal/cluster"
	"bioenrich/internal/synth"
)

func tinyWSD() *synth.WSDDataset {
	opts := synth.DefaultWSDOptions()
	opts.NumEntities = 12
	opts.ContextsPerSense = 15
	opts.SharedShare = 0.05 // clean separation for unit tests
	opts.TopicShare = 0.8
	return synth.GenerateMSHWSD(opts)
}

func TestVectorizeShapes(t *testing.T) {
	contexts := [][]string{
		{"a", "b", "c"}, {"a", "b"}, {"x", "y", "z"},
	}
	for _, rep := range Representations {
		vecs := Vectorize(contexts, rep)
		if len(vecs) != 3 {
			t.Fatalf("%s: %d vectors", rep, len(vecs))
		}
		for i, v := range vecs {
			if len(v) == 0 {
				t.Errorf("%s: vector %d empty", rep, i)
			}
		}
	}
}

func TestGraphRepConnectsSharedCollocates(t *testing.T) {
	// Contexts {a,b} and {b,c} share only b; under the graph
	// representation both expand through b's neighborhood, raising
	// their similarity above the bag-of-words value.
	contexts := [][]string{{"a", "b"}, {"b", "c"}, {"x", "y"}}
	bow := Vectorize(contexts, BagOfWords)
	grp := Vectorize(contexts, GraphRep)
	if grp[0].Cosine(grp[1]) <= bow[0].Cosine(bow[1]) {
		t.Errorf("graph rep did not smooth: graph %.3f <= bow %.3f",
			grp[0].Cosine(grp[1]), bow[0].Cosine(bow[1]))
	}
}

func TestInduceMonosemic(t *testing.T) {
	ds := tinyWSD()
	in := New()
	res, err := in.InduceFromContexts("mono", ds.Entities[0].Contexts, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 || len(res.Senses) != 1 {
		t.Errorf("monosemic induction K=%d", res.K)
	}
	if len(res.Senses[0].Features) == 0 {
		t.Error("sense has no features")
	}
	if res.Senses[0].Size != len(ds.Entities[0].Contexts) {
		t.Error("singleton cluster does not hold all contexts")
	}
}

func TestInducePolysemic(t *testing.T) {
	ds := tinyWSD()
	var ent synth.WSDEntity
	for _, e := range ds.Entities {
		if e.K == 2 {
			ent = e
			break
		}
	}
	in := New()
	in.Index = cluster.CK // ck recovers true k on clean data
	res, err := in.InduceFromContexts(ent.Term, ent.Contexts, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.K < cluster.KMin || res.K > cluster.KMax {
		t.Errorf("K = %d outside [2,5]", res.K)
	}
	total := 0
	for _, s := range res.Senses {
		total += s.Size
		if len(s.Features) == 0 {
			t.Error("induced sense without features")
		}
	}
	if total != len(ent.Contexts) {
		t.Errorf("sense sizes sum %d != %d contexts", total, len(ent.Contexts))
	}
}

func TestInduceErrors(t *testing.T) {
	in := New()
	if _, err := in.InduceFromContexts("x", nil, true); err == nil {
		t.Error("empty contexts accepted")
	}
	if _, err := in.PredictK(nil); err == nil {
		t.Error("PredictK on empty accepted")
	}
}

func TestEvaluateWSDCleanData(t *testing.T) {
	ds := tinyWSD()
	cells, err := EvaluateGrid(ds, []cluster.Algorithm{cluster.Direct},
		[]cluster.Index{cluster.CK}, []Representation{BagOfWords}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("grid = %d cells, want 1", len(cells))
	}
	if acc := cells[0].Accuracy; acc < 0.7 {
		t.Errorf("accuracy = %.3f on clean data", acc)
	}
}

func TestEvaluateGridSorted(t *testing.T) {
	ds := tinyWSD()
	cells, err := EvaluateGrid(ds,
		[]cluster.Algorithm{cluster.Direct, cluster.RB},
		[]cluster.Index{cluster.CK, cluster.FK},
		Representations, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2*2*2 {
		t.Fatalf("grid = %d cells", len(cells))
	}
	for i := 1; i < len(cells); i++ {
		if cells[i].Accuracy > cells[i-1].Accuracy {
			t.Error("grid not sorted by accuracy")
		}
	}
	for _, c := range cells {
		if c.Accuracy < 0 || c.Accuracy > 1 {
			t.Errorf("accuracy %v out of range", c.Accuracy)
		}
	}
}
