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
	"math"
	"slices"

	"bioenrich/internal/cluster"
	"bioenrich/internal/corpus"
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
// is checked before the corpus harvest of the term's contexts (over
// corpus.ContextWindow) and again before vectorization and clustering
// — the two expensive stages. A cancelled call returns ctx's error
// (errors.Is-compatible with context.Canceled /
// context.DeadlineExceeded). A Representation outside Representations
// is refused before the harvest.
func (in *Inducer) InduceContext(ctx context.Context, c *corpus.Corpus, term string, polysemic bool) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("senseind: induce %q: %w", term, err)
	}
	if err := in.checkRepresentation(); err != nil {
		return nil, err
	}
	ctxs := c.Contexts(term, corpus.ContextWindow)
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
	if err := in.checkRepresentation(); err != nil {
		return nil, err
	}
	if len(contexts) == 0 {
		return nil, fmt.Errorf("senseind: no contexts for %q", term)
	}
	if !polysemic {
		// One sense: every algorithm puts every context in the one
		// cluster, so none is run; an unknown one is refused as
		// cluster.Run refuses it.
		if !slices.Contains(cluster.Algorithms, in.Algorithm) {
			return nil, fmt.Errorf("senseind: cluster: unknown algorithm %q", in.Algorithm)
		}
		return vectorize(contexts, in.Representation).oneSense(term), nil
	}
	_, cl, err := cluster.PredictK(in.Algorithm, in.Index, Vectorize(contexts, in.Representation),
		cluster.KMin, cluster.KMax, in.Seed)
	if err != nil {
		return nil, fmt.Errorf("senseind: %w", err)
	}
	return resultFrom(term, cl), nil
}

// PredictK returns only the predicted number of senses for a set of
// contexts (the quantity the E1 benchmark scores).
func (in *Inducer) PredictK(contexts [][]string) (int, error) {
	if err := in.checkRepresentation(); err != nil {
		return 0, err
	}
	if len(contexts) == 0 {
		return 0, fmt.Errorf("senseind: no contexts")
	}
	vecs := Vectorize(contexts, in.Representation)
	k, _, err := cluster.PredictK(in.Algorithm, in.Index, vecs,
		cluster.KMin, cluster.KMax, in.Seed)
	return k, err
}

// checkRepresentation refuses a Representation that is not one of
// Representations: Vectorize would read it as GraphRep.
func (in *Inducer) checkRepresentation() error {
	if !slices.Contains(Representations, in.Representation) {
		return fmt.Errorf("senseind: unknown representation %q", in.Representation)
	}
	return nil
}

func resultFrom(term string, cl *cluster.Clustering) *Result {
	res := &Result{Term: term, K: cl.K}
	for i := 0; i < cl.K; i++ {
		res.addSense(cl.Size(i), cl.Centroid(i))
	}
	return res
}

// addSense appends the sense of a cluster of size contexts whose mean
// centroid is cen: its top features, then cen itself, normalized in
// place (Top copies the entries it returns).
func (res *Result) addSense(size int, cen sparse.Vector) {
	res.Senses = append(res.Senses, Sense{
		ID:       len(res.Senses),
		Size:     size,
		Features: cen.Top(TopFeaturesPerSense),
	})
	cen.Normalize()
	res.centroids = append(res.centroids, cen)
}

// Vectorize converts context windows to sparse vectors under the
// chosen representation, each normalized to unit length.
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
	return vectorize(contexts, rep).vectors()
}

// rows are contexts vectorized over the words of one call: each
// distinct word has a dense id, its index in words, numbered in order
// of first use. Row i (see row) holds context i's features as ids,
// ending before ends[i], with their weights at the same indexes of ws,
// and norms[i] is the Norm row i has once normalized.
type rows struct {
	words []string
	ids   []int32
	ws    []float64
	ends  []int
	norms []float64
}

// vectorize builds the rows, each normalized once. Every weight gets
// its adds in context-word order, as a map summed word by word would,
// and each row is scaled as Normalize scales a vector, so the rows
// hold the bits of map-built vectors, zero weights included.
func vectorize(contexts [][]string, rep Representation) *rows {
	r := &rows{ends: make([]int, len(contexts))}
	n := 0
	for _, ctx := range contexts {
		n += len(ctx)
	}
	// seq holds every context's words as ids, context after context.
	seq := make([]int32, 0, n)
	id := make(map[string]int32)
	for _, ctx := range contexts {
		for _, w := range ctx {
			x, ok := id[w]
			if !ok {
				x = int32(len(r.words))
				id[w] = x
				r.words = append(r.words, w)
			}
			seq = append(seq, x)
		}
	}
	if rep == BagOfWords {
		r.bagOfWords(contexts, seq)
	} else {
		r.graph(contexts, seq)
	}
	longest := 0
	for i := range r.ends {
		_, ws := r.row(i)
		longest = max(longest, len(ws))
	}
	scratch := make([]float64, longest)
	r.norms = make([]float64, len(r.ends))
	for i := range r.ends {
		_, ws := r.row(i)
		r.norms[i] = sparse.UnitNorm(ws, scratch)
	}
	return r
}

// row returns row i's word ids and their weights.
func (r *rows) row(i int) ([]int32, []float64) {
	lo := 0
	if i > 0 {
		lo = r.ends[i-1]
	}
	return r.ids[lo:r.ends[i]], r.ws[lo:r.ends[i]]
}

// bagOfWords fills the rows with each context's word counts times the
// word's idf, log(contexts / contexts holding it), taken once per word.
// A row lists its words in order of first use in the context.
func (r *rows) bagOfWords(contexts [][]string, seq []int32) {
	r.ids = make([]int32, 0, len(seq))
	r.ws = make([]float64, 0, len(seq))
	df := make([]int, len(r.words))
	at := make([]int, len(r.words)) // where the word last entered a row
	for x := range at {
		at[x] = -1
	}
	for i, ctx := range contexts {
		lo := len(r.ids)
		for _, x := range seq[:len(ctx)] {
			if at[x] >= lo {
				r.ws[at[x]]++
				continue
			}
			at[x] = len(r.ids)
			r.ids = append(r.ids, x)
			r.ws = append(r.ws, 1)
			df[x]++
		}
		seq = seq[len(ctx):]
		r.ends[i] = len(r.ids)
	}
	n := float64(len(contexts))
	idf := make([]float64, len(df))
	for x, d := range df {
		idf[x] = math.Log(n / float64(d))
	}
	for j, x := range r.ids {
		r.ws[j] *= idf[x]
	}
}

// graph fills the rows with the graph representation. The edge {a, b}
// is weighted by the number of (a, b) word pairs, in either order,
// that the contexts hold. Each row is summed in one buffer in context
// word order, a word's own count before its neighbours' weights; the
// order of a word's neighbours does not matter, since each is a
// different feature.
func (r *rows) graph(contexts [][]string, seq []int32) {
	type half struct{ nb, edge int32 }
	adj := make([][]half, len(r.words))
	var weight []float64
	edge := make(map[uint64]int32) // {a, b}, a < b → index into weight
	s := seq
	for _, ctx := range contexts {
		ids := s[:len(ctx)]
		s = s[len(ctx):]
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				if a == b {
					continue
				}
				key := uint64(min(a, b))<<32 | uint64(max(a, b))
				e, ok := edge[key]
				if !ok {
					e = int32(len(weight))
					edge[key] = e
					weight = append(weight, 0)
					adj[a] = append(adj[a], half{b, e})
					adj[b] = append(adj[b], half{a, e})
				}
				weight[e]++
			}
		}
	}
	// Every add is positive, so a feature enters the row the first
	// time it is added to while its sum is still 0.
	buf := make([]float64, len(r.words))
	var touched []int32
	for i, ctx := range contexts {
		for _, x := range seq[:len(ctx)] {
			if buf[x] == 0 {
				touched = append(touched, x)
			}
			buf[x]++
			for _, h := range adj[x] {
				if buf[h.nb] == 0 {
					touched = append(touched, h.nb)
				}
				buf[h.nb] += weight[h.edge]
			}
		}
		seq = seq[len(ctx):]
		for _, x := range touched {
			r.ids = append(r.ids, x)
			r.ws = append(r.ws, buf[x])
			buf[x] = 0
		}
		touched = touched[:0]
		r.ends[i] = len(r.ids)
	}
}

// vectors returns the rows as sparse vectors, for the clustering.
func (r *rows) vectors() []sparse.Vector {
	out := make([]sparse.Vector, len(r.ends))
	for i := range out {
		ids, ws := r.row(i)
		v := make(sparse.Vector, len(ids))
		for j, x := range ids {
			v[r.words[x]] = ws[j]
		}
		out[i] = v
	}
	return out
}

// oneSense is the sense of the contexts clustered at k = 1, bit for
// bit what cluster.Run(alg, Vectorize(contexts, rep), 1, seed) gives
// resultFrom: the clustering normalizes each vector a second time and
// sums them, in context order, into its one composite, whose mean is
// the sense's centroid. The rows are normalized in place, as UnitNorm
// would scale them by the norm vectorize kept, and summed into one
// dense composite.
func (r *rows) oneSense(term string) *Result {
	comp := make([]float64, len(r.words))
	for i := range r.ends {
		ids, ws := r.row(i)
		if n := r.norms[i]; n != 0 {
			s := 1 / n
			for j := range ws {
				ws[j] *= s
			}
		}
		for j, x := range ids {
			comp[x] += ws[j]
		}
	}
	s := 1 / float64(len(r.ends))
	cen := make(sparse.Vector, len(comp))
	for x, w := range comp {
		cen[r.words[x]] = w * s
	}
	res := &Result{Term: term, K: 1}
	res.addSense(len(r.ends), cen)
	return res
}
