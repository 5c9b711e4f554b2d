// Package senseind implements step III of the workflow: inducing the
// sense(s) of a candidate term. For terms flagged polysemic by step II
// it first predicts the number of senses k ∈ [2,5] by sweeping the
// clustering indexes of Table 2, then clusters the term's contexts and
// labels each cluster with its most important features — the induced
// concepts. Non-polysemic terms get a single induced sense (k = 1).
package senseind

import (
	"context"
	"fmt"

	"bioenrich/internal/cluster"
	"bioenrich/internal/corpus"
	"bioenrich/internal/graph"
	"bioenrich/internal/sparse"
)

// Representation selects how contexts are vectorized — the two corpus
// representations the paper evaluates.
type Representation string

// The two representations.
const (
	BagOfWords Representation = "bow"
	GraphRep   Representation = "graph"
)

// Representations lists both.
var Representations = []Representation{BagOfWords, GraphRep}

// DefaultWindow is the context window (tokens each side) InduceContext
// harvests from a corpus.
const DefaultWindow = 8

// TopFeaturesPerSense is how many centroid features label an induced
// concept.
const TopFeaturesPerSense = 8

// Sense is one induced concept: the cluster's size and its most
// representative context features.
type Sense struct {
	ID       int
	Size     int
	Features []sparse.Entry
}

// Result is the outcome of sense induction for one term.
type Result struct {
	Term   string
	K      int
	Senses []Sense

	// centroids are the full (unit) cluster centroids backing each
	// sense; Senses[i].Features is their truncated, human-readable
	// view. Used by NewDisambiguator.
	centroids []sparse.Vector
}

// Inducer bundles the configuration of step III. Its methods only
// read the receiver and their arguments, so one Inducer may be shared
// by concurrent goroutines as long as its fields are not reassigned;
// use WithSeed to derive per-candidate variants from a template.
type Inducer struct {
	Algorithm      cluster.Algorithm
	Index          cluster.Index
	Representation Representation
	Seed           int64
}

// New returns the default configuration: direct (spherical k-means)
// with the f_k index over bag-of-words — the best cell of the paper's
// experiment grid.
func New() *Inducer {
	return &Inducer{
		Algorithm:      cluster.Direct,
		Index:          cluster.FK,
		Representation: BagOfWords,
		Seed:           1,
	}
}

// WithSeed returns a copy of the inducer configured with seed — the
// idiom for deriving deterministic per-candidate inducers from one
// template when candidates run on a worker pool.
func (in Inducer) WithSeed(seed int64) *Inducer {
	in.Seed = seed
	return &in
}

// Induce runs step III for a term whose polysemy status is already
// known from step II. Induce is InduceContext with
// context.Background(): it cannot be cancelled.
func (in *Inducer) Induce(c *corpus.Corpus, term string, polysemic bool) (*Result, error) {
	//biolint:allow context-background documented uncancellable convenience wrapper
	return in.InduceContext(context.Background(), c, term, polysemic)
}

// InduceContext is Induce with cooperative cancellation: the context
// is checked before the corpus harvest of the term's DefaultWindow
// contexts and again before vectorization and clustering — the two
// expensive stages. A cancelled call returns ctx's error
// (errors.Is-compatible with context.Canceled /
// context.DeadlineExceeded).
func (in *Inducer) InduceContext(ctx context.Context, c *corpus.Corpus, term string, polysemic bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("senseind: induce %q: %w", term, err)
	}
	ctxs := c.Contexts(term, DefaultWindow)
	raw := make([][]string, len(ctxs))
	for i, cw := range ctxs {
		raw[i] = cw.Words
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("senseind: induce %q: %w", term, err)
	}
	return in.InduceFromContexts(term, raw, polysemic)
}

// InduceFromContexts runs step III on pre-harvested context windows
// (the form the WSD benchmark provides).
func (in *Inducer) InduceFromContexts(term string, contexts [][]string, polysemic bool) (*Result, error) {
	if len(contexts) == 0 {
		return nil, fmt.Errorf("senseind: no contexts for %q", term)
	}
	vecs := Vectorize(contexts, in.Representation)
	if !polysemic {
		// One sense: a single cluster over everything.
		cl, err := cluster.Run(in.Algorithm, vecs, 1, in.Seed)
		if err != nil {
			return nil, fmt.Errorf("senseind: %w", err)
		}
		return resultFrom(term, cl), nil
	}
	_, cl, err := cluster.PredictK(in.Algorithm, in.Index, vecs,
		cluster.KMin, cluster.KMax, in.Seed)
	if err != nil {
		return nil, fmt.Errorf("senseind: %w", err)
	}
	return resultFrom(term, cl), nil
}

// PredictK returns only the predicted number of senses for a set of
// contexts (the quantity the E1 benchmark scores).
func (in *Inducer) PredictK(contexts [][]string) (int, error) {
	if len(contexts) == 0 {
		return 0, fmt.Errorf("senseind: no contexts")
	}
	vecs := Vectorize(contexts, in.Representation)
	k, _, err := cluster.PredictK(in.Algorithm, in.Index, vecs,
		cluster.KMin, cluster.KMax, in.Seed)
	return k, err
}

func resultFrom(term string, cl *cluster.Clustering) *Result {
	res := &Result{Term: term, K: cl.K}
	for i := 0; i < cl.K; i++ {
		res.Senses = append(res.Senses, Sense{
			ID:       i,
			Size:     cl.Size(i),
			Features: cl.TopFeatures(i, TopFeaturesPerSense),
		})
		cen := cl.Centroid(i)
		cen.Normalize()
		res.centroids = append(res.centroids, cen)
	}
	return res
}

// Vectorize converts context windows to sparse vectors under the
// chosen representation.
//
// Bag-of-words: per-context term counts reweighted by TF-IDF over the
// context collection.
//
// Graph: a co-occurrence graph is induced over the contexts (edge
// {a,b} weighted by the number of windows containing both); each
// context is then represented by the sum of its words' adjacency
// vectors — a second-order representation that connects contexts
// sharing collocates even when they share no literal word.
func Vectorize(contexts [][]string, rep Representation) []sparse.Vector {
	vecs := make([]sparse.Vector, len(contexts))
	for i, ctx := range contexts {
		vecs[i] = sparse.FromCounts(ctx)
	}
	if rep == BagOfWords {
		sparse.TFIDF(vecs)
		return vecs
	}
	// Graph representation.
	g := graph.New()
	for _, ctx := range contexts {
		for i, a := range ctx {
			for _, b := range ctx[i+1:] {
				if a != b {
					g.AddEdge(a, b, 1)
				}
			}
		}
	}
	out := make([]sparse.Vector, len(contexts))
	for i, ctx := range contexts {
		v := sparse.New(64)
		for _, w := range ctx {
			v[w]++ // keep first-order signal
			for _, nb := range g.Neighbors(w) {
				v[nb] += g.Weight(w, nb)
			}
		}
		v.Normalize()
		out[i] = v
	}
	return out
}
