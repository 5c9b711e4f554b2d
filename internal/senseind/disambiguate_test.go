package senseind

import (
	"testing"

	"bioenrich/internal/cluster"
	"bioenrich/internal/synth"
)

func TestDisambiguatorRecoversGoldSenses(t *testing.T) {
	// Clean two-sense entity; induce, then disambiguate the original
	// contexts and compare against the gold labels (up to cluster-label
	// permutation, measured via clustering accuracy after best
	// matching).
	opts := synth.DefaultWSDOptions()
	opts.NumEntities = 5
	opts.ContextsPerSense = 25
	opts.SharedShare = 0.05
	opts.TopicShare = 0.85
	ds := synth.GenerateMSHWSD(opts)
	var ent synth.WSDEntity
	for _, e := range ds.Entities {
		if e.K == 2 {
			ent = e
			break
		}
	}
	in := New()
	in.Index = cluster.CK
	res, err := in.InduceFromContexts(ent.Term, ent.Contexts, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDisambiguator(res)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.centroids) != res.K {
		t.Fatalf("%d sense centroids, want %d", len(d.centroids), res.K)
	}
	assigned := make([]int, len(ent.Contexts))
	for i, ctx := range ent.Contexts {
		assigned[i], _ = d.Disambiguate(ctx)
	}
	// Best label matching for k=2: direct or flipped.
	direct, flipped := 0, 0
	for i, a := range assigned {
		if a == ent.Labels[i] {
			direct++
		}
		if 1-a == ent.Labels[i] {
			flipped++
		}
	}
	best := direct
	if flipped > best {
		best = flipped
	}
	acc := float64(best) / float64(len(assigned))
	if acc < 0.85 {
		t.Errorf("disambiguation accuracy = %.3f", acc)
	}
}

func TestDisambiguatorErrors(t *testing.T) {
	if _, err := NewDisambiguator(nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := NewDisambiguator(&Result{}); err == nil {
		t.Error("empty result accepted")
	}
}
