package synth

import (
	"fmt"
	"math/rand"
)

// WSDEntity is one ambiguous term of the MSH-WSD-like benchmark: its
// true number of senses and its labelled contexts (content-word
// windows, as the clustering consumes them).
type WSDEntity struct {
	Term     string
	K        int        // gold number of senses (2..5)
	Contexts [][]string // one content-word window per occurrence
	Labels   []int      // gold sense per context (diagnostics only)
}

// WSDDataset is the sense-number prediction benchmark. The paper uses
// MSH WSD: 203 polysemic English entities linked to 2–5 concepts.
type WSDDataset struct {
	Entities []WSDEntity
}

// WSDOptions configures the benchmark generator.
type WSDOptions struct {
	Seed             int64
	NumEntities      int     // paper: 203
	ContextsPerSense int     // occurrences sampled per sense
	ContextLen       int     // content words per context
	TopicSize        int     // vocabulary per sense topic
	TopicShare       float64 // probability a context word is topical
	SharedShare      float64 // fraction of each sense topic shared across senses (difficulty)
	BackgroundSize   int
	ZipfS            float64
}

// DefaultWSDOptions mirrors the MSH WSD benchmark shape at laptop
// scale.
func DefaultWSDOptions() WSDOptions {
	return WSDOptions{
		Seed:             3,
		NumEntities:      203,
		ContextsPerSense: 30,
		ContextLen:       18,
		TopicSize:        40,
		TopicShare:       0.36,
		SharedShare:      0.55,
		BackgroundSize:   600,
		ZipfS:            1.05,
	}
}

// senseDistribution assigns a sense count to each of n entities with
// the MSH WSD skew: the benchmark's 203 ambiguous entities are
// overwhelmingly two-sense (Jimeno-Yepes et al. 2011 report ~92%
// mapping to exactly 2 concepts). For the default n=203 this yields
// 186/12/4/1.
func senseDistribution(n int) []int {
	shares := []struct {
		k     int
		share float64
	}{
		{2, 0.912}, {3, 0.062}, {4, 0.02}, {5, 0.005},
	}
	out := make([]int, 0, n)
	for _, s := range shares {
		c := int(float64(n) * s.share)
		for i := 0; i < c; i++ {
			out = append(out, s.k)
		}
	}
	for len(out) < n {
		out = append(out, 2)
	}
	return out[:n]
}

// GenerateMSHWSD builds the benchmark: NumEntities ambiguous terms,
// each with gold sense count k ∈ [2,5] and ContextsPerSense labelled
// contexts per sense, drawn from k partially overlapping sense topics
// over a shared background vocabulary.
func GenerateMSHWSD(opts WSDOptions) *WSDDataset {
	r := rand.New(rand.NewSource(opts.Seed))
	wg := NewWordGen(opts.Seed + 11)
	bg := NewTopic(wg.Words(opts.BackgroundSize), opts.ZipfS)
	ks := senseDistribution(opts.NumEntities)
	ds := &WSDDataset{Entities: make([]WSDEntity, opts.NumEntities)}

	for e := 0; e < opts.NumEntities; e++ {
		k := ks[e]
		// Shared vocabulary across this entity's senses (what makes
		// the task non-trivial), plus per-sense fresh words.
		nShared := int(float64(opts.TopicSize) * opts.SharedShare)
		shared := wg.Words(nShared)
		topics := make([]*Topic, k)
		for s := 0; s < k; s++ {
			words := append(append([]string{}, wg.Words(opts.TopicSize-nShared)...), shared...)
			topics[s] = NewTopic(words, opts.ZipfS)
		}
		ent := WSDEntity{
			Term: fmt.Sprintf("entity%03d", e+1),
			K:    k,
		}
		for s := 0; s < k; s++ {
			for i := 0; i < opts.ContextsPerSense; i++ {
				ctx := make([]string, opts.ContextLen)
				for j := range ctx {
					if r.Float64() < opts.TopicShare {
						ctx[j] = topics[s].Sample(r)
					} else {
						ctx[j] = bg.Sample(r)
					}
				}
				ent.Contexts = append(ent.Contexts, ctx)
				ent.Labels = append(ent.Labels, s)
			}
		}
		// Shuffle contexts so clustering sees no ordering signal.
		r.Shuffle(len(ent.Contexts), func(i, j int) {
			ent.Contexts[i], ent.Contexts[j] = ent.Contexts[j], ent.Contexts[i]
			ent.Labels[i], ent.Labels[j] = ent.Labels[j], ent.Labels[i]
		})
		ds.Entities[e] = ent
	}
	return ds
}
