// Package linkage implements step IV of the workflow: positioning a
// new biomedical candidate term in an existing ontology. Following the
// paper: (1) a term co-occurrence graph restricted to the candidate's
// MeSH neighborhood is built from the corpus; (2) the candidate's
// context is compared — by cosine — with the contexts of its MeSH
// neighbors and of those neighbors' fathers and sons; (3) the top-N
// most similar ontology terms are proposed as positions.
package linkage

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/sparse"
	"bioenrich/internal/textutil"
)

// Relation explains why a term entered the comparison pool.
type Relation string

// Relations of proposals to the candidate's co-occurrence neighborhood.
const (
	Neighbor Relation = "neighbor" // co-occurs with the candidate
	Father   Relation = "father"   // parent concept of a neighbor
	Son      Relation = "son"      // child concept of a neighbor
)

// Proposal is one ranked position suggestion: the candidate could be
// attached at (as a synonym of, or child/parent of) this ontology term.
type Proposal struct {
	Where    string // the ontology term proposed as anchor
	Concept  ontology.ConceptID
	Cosine   float64
	Relation Relation
}

// The neighborhood scan's fixed shape: ontology terms of at most
// maxGramWords words within cooccurWindow tokens of a candidate
// occurrence are its neighbors, and only the maxNeighbors most
// frequent are expanded.
const (
	cooccurWindow = 20
	maxGramWords  = 4
	maxNeighbors  = 40
)

// Options configures the linker. New uses them as given, so the zero
// Options expands neither fathers nor sons (the table-4a ablation);
// DefaultOptions is the paper's setup.
type Options struct {
	ExpandFathers bool // include neighbors' parents
	ExpandSons    bool // include neighbors' children
	// Obs, when non-nil, counts context-vector cache hits and misses
	// (bioenrich_linkage_cache_{hits,misses}_total). nil disables the
	// counters at zero cost.
	Obs *obs.Registry
}

// DefaultOptions mirrors the paper's setup: both expansions on.
func DefaultOptions() Options {
	return Options{ExpandFathers: true, ExpandSons: true}
}

// Linker proposes ontology positions for candidate terms. A Linker is
// safe for concurrent use: Propose only reads the corpus and ontology,
// and the context-vector cache below is guarded. Candidates processed
// in the same run share MeSH neighbors (and those neighbors' fathers
// and sons), so caching each pool term's aggregated context vector
// turns repeated corpus scans into map hits. The cache holds pool
// terms only: a candidate's vector is summed from the contexts its
// caller harvests. The cache is valid as long as the corpus is not
// rebuilt, and the term prefixes as long as the ontology gains or
// loses no term; build a fresh Linker after either changes.
type Linker struct {
	c    *corpus.Corpus
	o    *ontology.Ontology
	opts Options

	// terms are the ontology's terms, sorted, and prefixes is
	// termPrefixes(terms): what the neighbourhood scan looks grams up
	// in.
	terms    []string
	prefixes map[string]int32

	// vecs caches pool term → termVec (the aggregated context vector
	// at corpus.ContextWindow, with its norm). Cached vectors are
	// shared and must be treated as read-only.
	vecs sync.Map

	// cacheHits/cacheMisses are resolved once at construction so the
	// contextVector hot path pays only a nil check when disabled.
	cacheHits, cacheMisses *obs.Counter
}

// New builds a linker over a corpus and the target ontology.
func New(c *corpus.Corpus, o *ontology.Ontology, opts Options) *Linker {
	terms := o.Terms()
	return &Linker{
		c: c, o: o, opts: opts,
		terms: terms, prefixes: termPrefixes(terms),
		cacheHits:   opts.Obs.Counter("bioenrich_linkage_cache_hits_total"),
		cacheMisses: opts.Obs.Counter("bioenrich_linkage_cache_misses_total"),
	}
}

// termVec is a cached context vector and its Norm, computed once on
// the miss that cached it.
type termVec struct {
	vec  sparse.Vector
	norm float64
}

// contextVector returns a pool term's aggregated context vector and
// its norm, reading the corpus at most once per term for the Linker's
// lifetime. Empty vectors (terms absent from the corpus) are cached
// too — they are the common case for ontology leaves and just as
// expensive to recompute.
func (l *Linker) contextVector(term string) termVec {
	if v, ok := l.vecs.Load(term); ok {
		l.cacheHits.Inc()
		return v.(termVec)
	}
	l.cacheMisses.Inc()
	v := l.c.ContextVector(term, corpus.ContextWindow)
	actual, _ := l.vecs.LoadOrStore(term, termVec{vec: v, norm: v.Norm()})
	return actual.(termVec)
}

// Propose returns the top-N position proposals for a candidate term,
// best first. The candidate must occur in the corpus. Propose harvests
// the candidate's contexts and calls ProposeContext with
// context.Background(): it cannot be cancelled.
func (l *Linker) Propose(candidate string, topN int) ([]Proposal, error) {
	//biolint:allow context-background documented uncancellable convenience wrapper
	return l.ProposeContext(context.Background(), candidate, l.c.Contexts(candidate, corpus.ContextWindow), topN)
}

// ProposeContext is Propose over the candidate's contexts as the
// caller harvested them, Contexts(candidate, corpus.ContextWindow) on
// the Linker's corpus, so a caller that also induces the candidate's
// senses scans its windows once for both steps. The candidate's
// context vector is the sum of the windows' word counts, and the
// neighbour scan visits the windows' occurrences. Cancellation is
// cooperative: the context is checked on entry, per document holding
// the candidate while scanning for neighbors, and per pool term while
// ranking — the two loops whose cost grows with the corpus. A
// cancelled call returns ctx's error (errors.Is-compatible with
// context.Canceled / DeadlineExceeded).
func (l *Linker) ProposeContext(ctx context.Context, candidate string, contexts []corpus.Context, topN int) ([]Proposal, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("linkage: propose %q: %w", candidate, err)
	}
	cand := textutil.NormalizeTerm(candidate)
	candVec := sparse.New(64)
	for _, cw := range contexts {
		for _, w := range cw.Words {
			candVec[w]++
		}
	}
	if len(candVec) == 0 {
		return nil, fmt.Errorf("linkage: candidate %q has no corpus contexts", candidate)
	}

	neighbors, err := l.meshNeighbors(ctx, cand, contexts)
	if err != nil {
		return nil, fmt.Errorf("linkage: propose %q: %w", candidate, err)
	}
	if len(neighbors) == 0 {
		return nil, fmt.Errorf("linkage: candidate %q co-occurs with no ontology term", candidate)
	}

	// Comparison pool: neighbors plus their fathers' and sons' terms.
	type poolEntry struct {
		concept  ontology.ConceptID
		relation Relation
	}
	pool := make(map[string]poolEntry)
	addTerms := func(id ontology.ConceptID, rel Relation) {
		c := l.o.Concept(id)
		if c == nil {
			return
		}
		for _, t := range c.Terms() {
			if t == cand {
				continue
			}
			if _, exists := pool[t]; !exists {
				pool[t] = poolEntry{concept: id, relation: rel}
			}
		}
	}
	for _, nb := range neighbors {
		for _, id := range l.o.ConceptsForTerm(nb) {
			addTerms(id, Neighbor)
			c := l.o.Concept(id)
			if l.opts.ExpandFathers {
				for _, p := range c.Parents {
					addTerms(p, Father)
				}
			}
			if l.opts.ExpandSons {
				for _, ch := range c.Children {
					addTerms(ch, Son)
				}
			}
		}
	}

	// Rank the pool by context cosine with the candidate: gather the
	// pool terms' cached vectors and norms, then score them in one
	// Cosines pass, which computes the candidate's norm once. Each pool
	// term may cost a full corpus scan on a cache miss, so gathering
	// is the other cancellation point.
	proposals := make([]Proposal, 0, len(pool))
	vecs := make([]sparse.Vector, 0, len(pool))
	norms := make([]float64, 0, len(pool))
	for term, pe := range pool {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("linkage: propose %q: %w", candidate, err)
		}
		tv := l.contextVector(term)
		if len(tv.vec) == 0 {
			continue // ontology term absent from the corpus
		}
		proposals = append(proposals, Proposal{Where: term, Concept: pe.concept, Relation: pe.relation})
		vecs = append(vecs, tv.vec)
		norms = append(norms, tv.norm)
	}
	for i, c := range candVec.Cosines(vecs, norms) {
		proposals[i].Cosine = c
	}
	sort.Slice(proposals, func(i, j int) bool {
		if proposals[i].Cosine != proposals[j].Cosine {
			return proposals[i].Cosine > proposals[j].Cosine
		}
		return proposals[i].Where < proposals[j].Where
	})
	if topN > 0 && topN < len(proposals) {
		proposals = proposals[:topN]
	}
	return proposals, nil
}

// meshNeighbors returns the ontology terms co-occurring with the
// candidate within the co-occurrence window, most frequent first,
// capped at maxNeighbors: a term counts once for every occurrence
// whose ±cooccurWindow region holds it as a gram of at most
// maxGramWords tokens, and the candidate never counts itself. The
// occurrences are those of the candidate's contexts, in posting order.
//
// Each document holding the candidate is visited once. Its
// occurrences' regions are merged into runs, and every gram in a run
// is grown word by word only while it is a key of l.prefixes, so a
// token that starts no ontology term costs one probe. The matches
// found come out sorted by start; a cursor then walks them once per
// occurrence, counting the distinct terms that lie wholly inside its
// region, so an occurrence costs its own region even in a long
// document. The context is checked once per document.
func (l *Linker) meshNeighbors(ctx context.Context, cand string, occs []corpus.Context) ([]string, error) {
	candWords := len(strings.Fields(cand))
	skip := int32(-1) // the candidate's index in l.terms, if it is a term
	if id, ok := l.prefixes[cand]; ok {
		skip = id
	}
	slot := make(map[int32]int) // index into l.terms → index into found
	var (
		found   []neighbour // in order of first match
		matches []match     // the current document's, by start
		gram    []byte
		seq     int // occurrences so far, across documents
	)
	for len(occs) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		inDoc := 1
		for inDoc < len(occs) && occs[inDoc].Doc == occs[0].Doc {
			inDoc++
		}
		docOccs := occs[:inDoc]
		occs = occs[inDoc:]
		toks := l.c.Tokens(int(docOccs[0].Doc))
		region := func(p corpus.Context) (lo, hi int) {
			return max(int(p.Pos)-cooccurWindow, 0), min(int(p.Pos)+candWords+cooccurWindow, len(toks))
		}

		// Occurrences come in position order, so both ends of their
		// regions ascend: a run ends where the next region starts past it.
		matches = matches[:0]
		for i := 0; i < len(docOccs); {
			lo, hi := region(docOccs[i])
			for i++; i < len(docOccs); i++ {
				next, end := region(docOccs[i])
				if next > hi {
					break
				}
				hi = end
			}
			for start := lo; start < hi; start++ {
				gram = gram[:0]
				for end := start + 1; end <= start+maxGramWords && end <= hi; end++ {
					if end > start+1 {
						gram = append(gram, ' ')
					}
					gram = append(gram, toks[end-1]...)
					id, ok := l.prefixes[string(gram)]
					if !ok {
						break
					}
					if id < 0 || id == skip {
						continue
					}
					idx, ok := slot[id]
					if !ok {
						idx = len(found)
						slot[id] = idx
						found = append(found, neighbour{term: id})
					}
					matches = append(matches, match{start: start, end: end, slot: idx})
				}
			}
		}

		cursor := 0
		for _, occ := range docOccs {
			seq++
			lo, hi := region(occ)
			for cursor < len(matches) && matches[cursor].start < lo {
				cursor++
			}
			for _, m := range matches[cursor:] {
				if m.start >= hi {
					break
				}
				if nb := &found[m.slot]; m.end <= hi && nb.last != seq {
					nb.last = seq
					nb.count++
				}
			}
		}
	}

	// A match can straddle two merged regions and lie inside neither:
	// its term keeps a zero count and is dropped.
	found = slices.DeleteFunc(found, func(nb neighbour) bool { return nb.count == 0 })
	sort.Slice(found, func(i, j int) bool {
		if found[i].count != found[j].count {
			return found[i].count > found[j].count
		}
		return l.terms[found[i].term] < l.terms[found[j].term]
	})
	out := make([]string, min(len(found), maxNeighbors))
	for i := range out {
		out[i] = l.terms[found[i].term]
	}
	return out, nil
}

// neighbour is an ontology term found near the candidate.
type neighbour struct {
	term  int32 // index into Linker.terms
	count int   // occurrences whose region holds the term
	last  int   // the last occurrence that counted it, numbered from 1
}

// match is one ontology term found in a document: tokens [start, end)
// spell it, and slot is its index among the candidate's neighbours.
type match struct {
	start, end, slot int
}

// termPrefixes maps every word-boundary prefix of each of terms, the
// whole term included, to the term's index when the prefix is itself
// one of terms and to -1 when it is not. A gram that is no key here
// is no term and starts none.
func termPrefixes(terms []string) map[string]int32 {
	prefixes := make(map[string]int32, 2*len(terms))
	for i, t := range terms {
		for j := 0; j < len(t); j++ {
			if t[j] != ' ' {
				continue
			}
			if _, ok := prefixes[t[:j]]; !ok {
				prefixes[t[:j]] = -1
			}
		}
		prefixes[t] = int32(i)
	}
	return prefixes
}
