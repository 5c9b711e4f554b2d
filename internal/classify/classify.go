// Package classify assigns documents to ontology concepts — the
// MeSH-based document classification task of Elberrichi et al.
// (arXiv:1206.4883): a document is represented by its content-word
// vector and compared, by cosine, against a distributional profile of
// every ontology concept. A concept's profile is the aggregated
// corpus context vector of its terms (preferred term plus synonyms),
// the same context-vector machinery step IV's semantic linkage uses.
//
// Building the per-concept profiles is O(corpus) — one context scan
// per ontology term — so the Classifier caches them per (key, epoch):
// the first classification after a snapshot publish rebuilds the
// profile index, every later one is O(document): tokenize, then one
// sequential sparse.Cosines pass against the cached unit vectors and
// the norms stored beside them. The cache is keyed by the registry
// entry name and invalidated by epoch comparison, riding the snapshot
// design: an index is immutable once built, readers grab it with one
// atomic load.
//
// Classification is deterministic byte-for-byte: every score is
// bit-identical to sparse.Vector.Cosine of (document, profile), and
// the ranking breaks score ties by concept id.
package classify

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bioenrich/internal/linkage"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/sparse"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// Metric names the classifier registers, exported so the server's
// exposition tests can pin them.
const (
	// CacheHitsMetric counts classifications served from a cached
	// concept-profile index.
	CacheHitsMetric = "bioenrich_classify_cache_hits_total"
	// CacheMissesMetric counts profile-index (re)builds — one per
	// (ontology, epoch) however many classifications follow.
	CacheMissesMetric = "bioenrich_classify_cache_misses_total"
	// RequestsMetric counts classify requests by ontology label (the
	// server increments it per request).
	RequestsMetric = "bioenrich_classify_requests_total"
	// SecondsMetric is the per-ontology classify latency histogram
	// (the server observes it per request).
	SecondsMetric = "bioenrich_classify_seconds"
)

// Options configures a Classifier.
type Options struct {
	// Obs, when non-nil, receives the concept-cache hit/miss counters.
	// nil disables them at zero cost.
	Obs *obs.Registry
}

// ConceptScore is one ranked assignment: the document resembles this
// concept's corpus contexts with the given cosine.
type ConceptScore struct {
	ID        ontology.ConceptID `json:"id"`
	Preferred string             `json:"preferred"`
	Score     float64            `json:"score"`
}

// Result is one document's classification.
type Result struct {
	// Epoch is the snapshot version the classification was served
	// from — the value a client pins for read-decide-apply flows.
	Epoch uint64 `json:"epoch"`
	// Lang is the corpus language the document was tokenized with.
	Lang string `json:"lang"`
	// DocTokens counts the content words the document vector was built
	// from.
	DocTokens int `json:"doc_tokens"`
	// Concepts are the top assignments, best first. Never nil: zero
	// matches encode as [].
	Concepts []ConceptScore `json:"concepts"`
}

// index is the immutable per-epoch concept-profile index: ids sorted,
// vecs unit-normalized, norms[i] == vecs[i].Norm(), parallel slices.
type index struct {
	epoch uint64
	ids   []ontology.ConceptID
	prefs []string
	vecs  []sparse.Vector
	norms []float64
}

// Classifier classifies documents against snapshot-backed ontologies,
// caching one profile index per (key, epoch). Safe for concurrent
// use: index pointers swap atomically, builds serialize on a mutex so
// concurrent first-classifications after a publish build once.
type Classifier struct {
	// buildMu serializes index builds only; classification never takes
	// it once the index for the current epoch exists.
	buildMu sync.Mutex
	// caches maps key → *atomic.Pointer[index]. Entries are created on
	// first use and never removed (registry entries are never removed
	// either).
	caches sync.Map

	hits, misses *obs.Counter
}

// New builds a classifier.
func New(opts Options) *Classifier {
	return &Classifier{
		hits:   opts.Obs.Counter(CacheHitsMetric),
		misses: opts.Obs.Counter(CacheMissesMetric),
	}
}

// Classify assigns text to the topN most similar concepts of the
// snapshot's ontology. key namespaces the profile cache (use the
// registry entry name; any fixed string works for single-ontology
// use). A document with no content words is an input error.
func (cl *Classifier) Classify(ctx context.Context, key string, snap *state.Snapshot, text string, topN int) (*Result, error) {
	if snap == nil {
		return nil, fmt.Errorf("classify: nil snapshot")
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("classify: %w", err)
	}
	lang := snap.Corpus.Lang()
	docVec := sparse.FromCounts(textutil.ContentWords(text, lang))
	if len(docVec) == 0 {
		return nil, fmt.Errorf("classify: document has no content words (lang %s)", lang)
	}
	idx, err := cl.index(ctx, key, snap)
	if err != nil {
		return nil, err
	}

	scores := docVec.Cosines(idx.vecs, idx.norms)
	out := make([]ConceptScore, 0, len(idx.ids))
	for i, s := range scores {
		if s > 0 {
			out = append(out, ConceptScore{ID: idx.ids[i], Preferred: idx.prefs[i], Score: s})
		}
	}
	sortScores(out)
	if topN > 0 && topN < len(out) {
		out = out[:topN]
	}
	return &Result{
		Epoch:     snap.Epoch,
		Lang:      lang.String(),
		DocTokens: len(docVec),
		Concepts:  out,
	}, nil
}

// index returns the profile index for (key, snap.Epoch), building it
// on first use after a publish. Concurrent callers build at most once.
func (cl *Classifier) index(ctx context.Context, key string, snap *state.Snapshot) (*index, error) {
	slotAny, _ := cl.caches.LoadOrStore(key, &atomic.Pointer[index]{})
	slot := slotAny.(*atomic.Pointer[index])
	if idx := slot.Load(); idx != nil && idx.epoch == snap.Epoch {
		cl.hits.Inc()
		return idx, nil
	}
	cl.buildMu.Lock()
	defer cl.buildMu.Unlock()
	if idx := slot.Load(); idx != nil && idx.epoch == snap.Epoch {
		// Built by whoever held the mutex first; that build already
		// counted the miss.
		cl.hits.Inc()
		return idx, nil
	}
	cl.misses.Inc()
	idx, err := cl.build(ctx, snap)
	if err != nil {
		return nil, err
	}
	slot.Store(idx)
	return idx, nil
}

// build computes the per-concept profile vectors: for each concept
// (in sorted id order), the sum of the corpus context vectors of its
// terms, counted over step IV's linkage.ContextWindow and
// unit-normalized. Each term's contexts are counted straight into the
// concept's one vector (AddContextVector), with no per-term vector in
// between. Concepts absent from the corpus keep an empty vector and
// score 0 against everything. The context is checked per concept.
func (cl *Classifier) build(ctx context.Context, snap *state.Snapshot) (*index, error) {
	o, c := snap.Ontology, snap.Corpus
	ids := o.ConceptIDs()
	idx := &index{
		epoch: snap.Epoch,
		ids:   ids,
		prefs: make([]string, len(ids)),
		vecs:  make([]sparse.Vector, len(ids)),
		norms: make([]float64, len(ids)),
	}
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("classify: build concept profiles: %w", err)
		}
		concept := o.Concept(id)
		idx.prefs[i] = concept.Preferred
		v := sparse.New(64)
		for _, t := range concept.Terms() {
			c.AddContextVector(v, t, linkage.ContextWindow)
		}
		v.Normalize()
		idx.vecs[i] = v
		// Taken after Normalize: 1 up to rounding (0 for an empty
		// profile), and exactly the norm Cosine would compute.
		idx.norms[i] = v.Norm()
	}
	return idx, nil
}

// sortScores orders scores descending, ties broken by ascending
// concept id — the deterministic ranking contract.
func sortScores(out []ConceptScore) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
}
