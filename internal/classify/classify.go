// Package classify assigns documents to ontology concepts — the
// MeSH-based document classification task of Elberrichi et al.
// (arXiv:1206.4883): a document is represented by its content-word
// vector and compared, by cosine, against a distributional profile of
// every ontology concept. A concept's profile is the aggregated
// corpus context vector of its terms (preferred term plus synonyms),
// the same context-vector machinery step IV's semantic linkage uses.
//
// Building the per-concept profiles is O(corpus) — one context scan
// per ontology term — so the profile index is built once per published
// snapshot and kept in that snapshot's Slot (state.Snapshot's
// Derived): the first classification on a snapshot builds it, every
// later one is O(document): tokenize, then walk the postings of the
// document's own words in the index, which stores the profiles
// inverted (word → concepts holding it, with their unit weights), and
// rank the concepts it scored. An index is immutable once built, and
// a request on an older snapshot reads that snapshot's own index.
//
// Classification is deterministic byte-for-byte: every score is
// bit-identical to sparse.Vector.Cosine of (document, profile), and
// the ranking breaks score ties by concept id.
package classify

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/sparse"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// Metric names the classifier registers, exported so the server's
// exposition tests can pin them.
const (
	// CacheHitsMetric counts classifications served from a snapshot's
	// kept concept-profile index.
	CacheHitsMetric = "bioenrich_classify_cache_hits_total"
	// CacheMissesMetric counts profile-index builds — one per
	// snapshot however many classifications follow.
	CacheMissesMetric = "bioenrich_classify_cache_misses_total"
	// RequestsMetric counts classifications by ontology label.
	RequestsMetric = "bioenrich_classify_requests_total"
	// SecondsMetric is the per-ontology classify latency histogram.
	SecondsMetric = "bioenrich_classify_seconds"
)

// Options configures a Classifier.
type Options struct {
	// Obs, when non-nil, receives the index hit/miss counters and the
	// per-ontology request counter and latency histogram. nil disables
	// them at zero cost.
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

// index is the immutable per-snapshot concept-profile index. ids are
// sorted; prefs and norms are parallel to them, and norms[i] is
// concept i's profile Norm. The profiles are stored inverted: a
// profile word's slot s names its postings,
// postings[start[s]:start[s+1]], the concepts whose profile holds the
// word, ascending, each with its unit weight there.
type index struct {
	ids      []ontology.ConceptID
	prefs    []string
	norms    []float64
	slots    map[string]int32
	start    []int
	postings []sparse.Posting
}

// lookup returns the postings of word: none when no profile holds it.
func (idx *index) lookup(word string) []sparse.Posting {
	s, ok := idx.slots[word]
	if !ok {
		return nil
	}
	return idx.postings[idx.start[s]:idx.start[s+1]]
}

// Classifier classifies documents against snapshot-backed ontologies.
// It holds only metric handles: each snapshot keeps the profile index
// built from it. Safe for concurrent use.
type Classifier struct {
	reg          *obs.Registry
	hits, misses *obs.Counter
}

// New builds a classifier.
func New(opts Options) *Classifier {
	return &Classifier{
		reg:    opts.Obs,
		hits:   opts.Obs.Counter(CacheHitsMetric),
		misses: opts.Obs.Counter(CacheMissesMetric),
	}
}

// Classify assigns text to the topN most similar concepts of the
// snapshot's ontology. key is the ontology label of the request counter
// and latency histogram (use the registry entry name; any fixed string
// works for single-ontology use). A document with no content words is
// an input error.
func (cl *Classifier) Classify(ctx context.Context, key string, snap *state.Snapshot, text string, topN int) (*Result, error) {
	start := obs.Now()
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
	idx, err := cl.index(ctx, snap)
	if err != nil {
		return nil, err
	}

	scores := docVec.InvertedCosines(idx.lookup, idx.norms)
	top := rank(scores, topN)
	out := make([]ConceptScore, len(top))
	for j, i := range top {
		out[j] = ConceptScore{ID: idx.ids[i], Preferred: idx.prefs[i], Score: scores[i]}
	}
	if cl.reg != nil { // the label arguments escape, so they cost allocations
		cl.reg.Counter(RequestsMetric, "ontology", key).Inc()
		cl.reg.Histogram(SecondsMetric, nil, "ontology", key).Observe(obs.Since(start).Seconds())
	}
	return &Result{
		Epoch:     snap.Epoch,
		Lang:      lang.String(),
		DocTokens: len(docVec),
		Concepts:  out,
	}, nil
}

// index returns the profile index snap keeps, building it on the
// snapshot's first classification. The call that runs the build counts
// a miss, and every other call that gets the index a hit.
func (cl *Classifier) index(ctx context.Context, snap *state.Snapshot) (*index, error) {
	built := false
	v, err := snap.Derived(ctx, func() (any, error) {
		built = true
		cl.misses.Inc()
		return build(ctx, snap)
	})
	if err != nil {
		return nil, err
	}
	if !built {
		cl.hits.Inc()
	}
	return v.(*index), nil
}

// build computes the profile index. A concept's profile (concepts in
// sorted id order) is the sum of the corpus context vectors of its
// terms, counted over corpus.ContextWindow, as step IV counts, and
// unit-normalized as sparse.Vector.Normalize does. Concepts absent
// from the corpus keep an empty profile and norm 0, and score 0
// against everything. No profile is built as a map: each concept's
// words are counted straight into one dense per-slot buffer reused
// across concepts, and its postings go into fixed-size chunks. Once
// every concept is done, a counting sort moves them into the flat
// array grouped by slot, which is allocated once at its final size,
// and keeps each word's concepts ascending. The context is checked per
// concept.
func build(ctx context.Context, snap *state.Snapshot) (*index, error) {
	o, c := snap.Ontology, snap.Corpus
	ids := o.ConceptIDs()
	idx := &index{
		ids:   ids,
		prefs: make([]string, len(ids)),
		norms: make([]float64, len(ids)),
		slots: make(map[string]int32),
	}
	// counts[s] is the current concept's count of slot s's word, and 0
	// for every word it does not hold; words lists the concept's slots
	// in the order first counted.
	var (
		counts           []int32
		words            []int32
		weights, scratch []float64
		chunks           [][]chunkEntry
	)
	count := func(w string) {
		s, ok := idx.slots[w]
		if !ok {
			s = int32(len(counts))
			idx.slots[w] = s
			counts = append(counts, 0)
		}
		if counts[s] == 0 {
			words = append(words, s)
		}
		counts[s]++
	}
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("classify: build concept profiles: %w", err)
		}
		concept := o.Concept(id)
		idx.prefs[i] = concept.Preferred
		words = words[:0]
		for _, t := range concept.Terms() {
			c.EachContextWord(t, corpus.ContextWindow, count)
		}
		weights = weights[:0]
		for _, s := range words {
			weights = append(weights, float64(counts[s]))
			counts[s] = 0
		}
		scratch = slices.Grow(scratch[:0], len(weights))
		idx.norms[i] = sparse.UnitNorm(weights, scratch)
		for j, s := range words {
			if len(chunks) == 0 || len(chunks[len(chunks)-1]) == chunkLen {
				chunks = append(chunks, make([]chunkEntry, 0, chunkLen))
			}
			last := &chunks[len(chunks)-1]
			*last = append(*last, chunkEntry{slot: s, row: int32(i), weight: weights[j]})
		}
	}
	// Counting sort: count each slot's postings, sum the counts into
	// start offsets, then place the postings in emission order, using
	// counts (all 0 again) as each slot's fill cursor.
	idx.start = make([]int, len(counts)+1)
	for _, chunk := range chunks {
		for _, e := range chunk {
			idx.start[e.slot+1]++
		}
	}
	for s := range counts {
		idx.start[s+1] += idx.start[s]
	}
	idx.postings = make([]sparse.Posting, idx.start[len(counts)])
	for _, chunk := range chunks {
		for _, e := range chunk {
			idx.postings[idx.start[e.slot]+int(counts[e.slot])] = sparse.Posting{Row: e.row, Weight: e.weight}
			counts[e.slot]++
		}
	}
	return idx, nil
}

// chunkLen is the number of postings one build chunk holds (16 KiB).
// Chunks never regrow, so a build allocates its postings about twice,
// once chunked and once flat, whatever their number.
const chunkLen = 1024

// chunkEntry is one posting as a build emits it, before the counting
// sort groups postings by slot.
type chunkEntry struct {
	slot, row int32
	weight    float64
}

// rank returns the indices of the positive scores in ranking order —
// score descending, then index ascending, which is concept id order —
// cut to the topN best when topN > 0, so that only those become
// ConceptScores.
func rank(scores []float64, topN int) []int {
	if topN <= 0 || topN >= len(scores) {
		all := make([]int, 0, len(scores))
		for i, s := range scores {
			if s > 0 {
				all = append(all, i)
			}
		}
		slices.SortFunc(all, func(a, b int) int {
			if c := cmp.Compare(scores[b], scores[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return all
	}
	top := make([]int, 0, topN)
	for i, s := range scores {
		if s <= 0 || (len(top) == topN && s <= scores[top[topN-1]]) {
			continue
		}
		// Behind every kept score at least as high: indices ascend, so
		// those came first, and ties stay in index order.
		j := sort.Search(len(top), func(p int) bool { return scores[top[p]] < s })
		if len(top) < topN {
			top = append(top, 0)
		}
		copy(top[j+1:], top[j:])
		top[j] = i
	}
	return top
}
