// Package termex implements step I of the workflow: BIOTEX-style
// biomedical term extraction. Candidate terms are harvested with the
// POS patterns of package postag and ranked with the measures of the
// authors' companion methodology paper (Lossio-Ventura et al., IRJ
// 2016): C-value, TF-IDF, Okapi BM25, F-TFIDF-C and LIDF-value.
package termex

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/postag"
	"bioenrich/internal/textutil"
)

// Measure names a term-ranking measure.
type Measure string

// The BIOTEX measures.
const (
	CValue  Measure = "c-value"
	TFIDF   Measure = "tf-idf"
	Okapi   Measure = "okapi"
	FTFIDFC Measure = "f-tfidf-c"
	LIDF    Measure = "lidf-value"
)

// Measures lists all ranking measures.
var Measures = []Measure{CValue, TFIDF, Okapi, FTFIDFC, LIDF, TeRGraph}

// ScoredTerm is one ranked candidate.
type ScoredTerm struct {
	Term  string
	Score float64
	Freq  int // collection frequency as a candidate
	Docs  int // document frequency
	Words int // term length in words
}

// Extractor harvests and ranks candidate terms from a corpus.
type Extractor struct {
	c      *corpus.Corpus
	tagger *postag.Tagger
	t      *table // the corpus's candidate table; nil until Scan

	// pattern model for LIDF-value; uniform when no reference is set
	patternProb map[string]float64
}

// table is step I's candidate table: everything ranking reads that
// depends on the corpus alone. It is built once per corpus and kept in
// the corpus's Slot, so every later Extractor over the same corpus
// reads it; nothing writes it after the build.
type table struct {
	cands    []cand   // one row per distinct candidate, in order of first occurrence
	patterns []string // distinct tag patterns ("JJ NN"), in order of first occurrence
}

// cand is one row of the candidate table.
type cand struct {
	term    string  // normalized words joined by single spaces
	docs    []int32 // the documents it occurs in, ascending
	freq    int32   // occurrences
	pattern int32   // index into table.patterns
	words   int32   // length in words
	// C-value's nesting sums over the candidates that contain this one:
	// their number and their summed frequency. A term nested twice in b
	// counts b twice.
	nestedIn   int32
	nestedFreq int
}

// NewExtractor builds an extractor over a built corpus.
func NewExtractor(c *corpus.Corpus) *Extractor {
	return &Extractor{c: c, tagger: postag.NewTagger(c.Lang())}
}

// Scan makes the corpus's candidate table available to the extractor;
// Rank and Walk call it. The first Scan of a corpus harvests the
// candidates of every document and keeps the table with the corpus;
// every later Scan of that corpus, through any Extractor, reads it.
// The harvest checks ctx once per document, and a cancelled one returns
// ctx's error and keeps no partial table.
func (e *Extractor) Scan(ctx context.Context) error {
	if e.t != nil {
		return nil
	}
	v, err := e.c.Derived(ctx, func() (any, error) { return newTable(ctx, e.c, e.tagger) })
	if err != nil {
		return fmt.Errorf("termex: scan: %w", err)
	}
	e.t = v.(*table)
	return nil
}

// newTable harvests the candidates of every document of c into a table
// and sums C-value's nesting over it.
//
// A span's term is built in one reused buffer and looked up without
// a conversion, so a candidate costs a string only the first time it
// is seen; each distinct raw token is normalized and tagged once, and
// each distinct tag pattern is stored once.
func newTable(ctx context.Context, c *corpus.Corpus, tagger *postag.Tagger) (*table, error) {
	lang := c.Lang()
	t := &table{}
	byTerm := make(map[string]int)             // term -> row
	memo := make(map[string]postag.TaggedWord) // raw token -> its tagged form
	byPattern := make(map[string]int32)        // pattern -> index into t.patterns
	var (
		tagged   []postag.TaggedWord
		spans    []postag.Candidate
		key, pat []byte
	)
	for d := 0; d < c.NumDocs(); d++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		doc := c.Doc(d)
		for _, sentence := range textutil.Sentences(doc.Title + ". " + doc.Text) {
			tagged = tagged[:0]
			for _, tok := range textutil.Tokenize(sentence) {
				tw, ok := memo[tok.Text]
				if !ok {
					w := textutil.Normalize(tok.Text)
					tw = postag.TaggedWord{Word: w, Tag: tagger.TagWord(w)}
					memo[tok.Text] = tw
				}
				tagged = append(tagged, tw)
			}
			spans = postag.Candidates(spans[:0], tagged, lang)
			for _, sp := range spans {
				span := tagged[sp.Start : sp.Start+sp.Len]
				key = key[:0]
				for i, tw := range span {
					if i > 0 {
						key = append(key, ' ')
					}
					key = append(key, tw.Word...)
				}
				i, ok := byTerm[string(key)]
				if !ok {
					pat = appendPattern(pat[:0], span)
					p, ok := byPattern[string(pat)]
					if !ok {
						p = int32(len(t.patterns))
						t.patterns = append(t.patterns, string(pat))
						byPattern[t.patterns[p]] = p
					}
					i = len(t.cands)
					t.cands = append(t.cands, cand{term: string(key), pattern: p, words: int32(sp.Len)})
					byTerm[t.cands[i].term] = i
				}
				row := &t.cands[i]
				row.freq++
				if n := len(row.docs); n == 0 || row.docs[n-1] != int32(d) {
					row.docs = append(row.docs, int32(d))
				}
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var subs []string
	for _, longer := range t.cands {
		subs = appendSubTerms(subs[:0], longer.term)
		for _, sub := range subs {
			if j, isCand := byTerm[sub]; isCand {
				t.cands[j].nestedIn++
				t.cands[j].nestedFreq += int(longer.freq)
			}
		}
	}
	return t, nil
}

// appendPattern appends the tag pattern of span ("JJ NN") to dst.
func appendPattern(dst []byte, span []postag.TaggedWord) []byte {
	for i, tw := range span {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, tw.Tag.String()...)
	}
	return dst
}

// NumCandidates returns the number of distinct candidates found by
// Scan or Rank (0 before either has run).
func (e *Extractor) NumCandidates() int {
	if e.t == nil {
		return 0
	}
	return len(e.t.cands)
}

// Freq returns a candidate's occurrence count (0 if never harvested,
// or before Scan or Rank has run). The table keeps no index by term,
// so Freq reads every row.
func (e *Extractor) Freq(term string) int {
	if e.t == nil {
		return 0
	}
	term = textutil.NormalizeTerm(term)
	for _, c := range e.t.cands {
		if c.term == term {
			return int(c.freq)
		}
	}
	return 0
}

// LearnPatterns fits the LIDF-value pattern model from a reference
// terminology (the paper learns pattern probabilities from terms
// already present in UMLS/MeSH): each reference term is tagged and its
// tag sequence counted; P(pattern) = count/total.
func (e *Extractor) LearnPatterns(referenceTerms []string) {
	counts := make(map[string]int)
	total := 0
	var pat []byte
	for _, term := range referenceTerms {
		tagged := e.tagger.Tag(strings.Fields(textutil.NormalizeTerm(term)))
		pat = appendPattern(pat[:0], tagged)
		counts[string(pat)]++
		total++
	}
	e.patternProb = make(map[string]float64, len(counts))
	for p, n := range counts {
		e.patternProb[p] = float64(n) / float64(total)
	}
}

// patternProbability returns P(pattern), with a small floor so unseen
// patterns rank low but non-zero.
func (e *Extractor) patternProbability(pattern string) float64 {
	if e.patternProb == nil {
		return 1 // no model: LIDF degrades to idf × C-value
	}
	const floor = 1e-3
	if p, ok := e.patternProb[pattern]; ok && p > floor {
		return p
	}
	return floor
}

// Rank returns the first n candidates of Walk's order (n ≤ 0 means
// all): the best scores under the measure, ties broken lexically for
// determinism. Errors are Walk's.
func (e *Extractor) Rank(ctx context.Context, m Measure, n int) ([]ScoredTerm, error) {
	out := []ScoredTerm{}
	err := e.Walk(ctx, m, func(st ScoredTerm) bool {
		out = append(out, st)
		return n <= 0 || len(out) < n
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Walk scores every candidate with the measure and hands them to yield
// best first — score descending, then term — until yield returns false
// or the candidates run out. It orders them as it goes, so a caller
// that stops after k of n candidates pays O(n + k log n), not a sort.
// A measure not in Measures is an error before any scan. Walk checks
// ctx on entry, in the scan and in TeRGraph's co-occurrence build, and
// returns its error before yielding anything.
func (e *Extractor) Walk(ctx context.Context, m Measure, yield func(ScoredTerm) bool) error {
	if !slices.Contains(Measures, m) {
		return fmt.Errorf("termex: unknown measure %q", m)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("termex: rank: %w", err)
	}
	if err := e.Scan(ctx); err != nil {
		return err
	}
	scores, err := e.scoreAll(ctx, m)
	if err != nil {
		return err
	}
	r := newRanking(e.t.cands, scores)
	for {
		i, ok := r.next()
		if !ok {
			return nil
		}
		c := &e.t.cands[i]
		if !yield(ScoredTerm{Term: c.term, Score: scores[i], Freq: int(c.freq), Docs: len(c.docs), Words: int(c.words)}) {
			return nil
		}
	}
}

// ranking hands out candidate indices best first: score descending,
// then term. It heapifies the candidates once, in linear time, and each
// next pops one in O(log n).
type ranking struct {
	cands []cand
	heap  []scored // a binary heap, best at the root
}

// scored is one heap entry: a candidate's index with its score inline,
// so comparisons read the heap and touch the table only on ties.
type scored struct {
	score float64
	i     int32
}

func newRanking(cands []cand, scores []float64) *ranking {
	r := &ranking{cands: cands, heap: make([]scored, len(cands))}
	for i, s := range scores {
		r.heap[i] = scored{s, int32(i)}
	}
	for i := len(r.heap)/2 - 1; i >= 0; i-- {
		r.down(i)
	}
	return r
}

// before reports whether a ranks ahead of b.
func (r *ranking) before(a, b scored) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return r.cands[a.i].term < r.cands[b.i].term
}

// down moves the entry at heap position i below every entry that
// ranks ahead of it.
func (r *ranking) down(i int) {
	h := r.heap
	for {
		best := i
		for _, child := range [2]int{2*i + 1, 2*i + 2} {
			if child < len(h) && r.before(h[child], h[best]) {
				best = child
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// next pops the best candidate left; false once none is.
func (r *ranking) next() (int32, bool) {
	h := r.heap
	if len(h) == 0 {
		return 0, false
	}
	top, last := h[0], len(h)-1
	h[0] = h[last]
	r.heap = h[:last]
	r.down(0)
	return top.i, true
}

// scoreAll computes the chosen measure, one of Measures, for every
// candidate, aligned with the candidate table. Only TeRGraph's
// co-occurrence build can fail, when ctx ends.
func (e *Extractor) scoreAll(ctx context.Context, m Measure) ([]float64, error) {
	switch m {
	case CValue:
		return e.t.cValues(), nil
	case TFIDF:
		return e.tfidfScores(), nil
	case Okapi:
		return e.okapiScores(), nil
	case FTFIDFC:
		return harmonic(e.tfidfScores(), e.t.cValues()), nil
	case LIDF:
		out := e.t.cValues()
		probs := make([]float64, len(e.t.patterns))
		for p, pattern := range e.t.patterns {
			probs[p] = e.patternProbability(pattern)
		}
		n := float64(e.c.NumDocs())
		for i, c := range e.t.cands {
			idf := math.Log(n / float64(len(c.docs)))
			out[i] = probs[c.pattern] * idf * out[i]
		}
		return out, nil
	default: // TeRGraph
		return e.terGraphScores(ctx)
	}
}

// cValues implements Frantzi's C-value over the harvested candidates:
//
//	C-value(a) = log2(|a|+1) · f(a)                      if a is not nested
//	C-value(a) = log2(|a|+1) · (f(a) − mean_{b⊃a} f(b))  otherwise
//
// from the nesting sums the table keeps.
func (t *table) cValues() []float64 {
	out := make([]float64, len(t.cands))
	for i, c := range t.cands {
		l := math.Log2(float64(c.words) + 1)
		score := float64(c.freq)
		if c.nestedIn > 0 {
			score -= float64(c.nestedFreq) / float64(c.nestedIn)
		}
		out[i] = l * score
	}
	return out
}

// appendSubTerms appends to dst every proper contiguous sub-phrase of
// a term whose words are joined by single spaces, shortest first, as
// substrings of the term: "a b c" gives a, b, c, "a b", "b c".
func appendSubTerms(dst []string, term string) []string {
	// starts[w] is where word w begins; a virtual word begins one past
	// the end, so word w ends at starts[w+1]-1.
	starts := make([]int, 1, postag.MaxTermWords+1)
	for i := 0; i < len(term); i++ {
		if term[i] == ' ' {
			starts = append(starts, i+1)
		}
	}
	starts = append(starts, len(term)+1)
	words := len(starts) - 1
	for n := 1; n < words; n++ {
		for w := 0; w+n <= words; w++ {
			dst = append(dst, term[starts[w]:starts[w+n]-1])
		}
	}
	return dst
}

// tfidfScores is candidate tf × log(N/df).
func (e *Extractor) tfidfScores() []float64 {
	out := make([]float64, len(e.t.cands))
	n := float64(e.c.NumDocs())
	for i, c := range e.t.cands {
		idf := math.Log(n / float64(len(c.docs)))
		out[i] = float64(c.freq) * idf
	}
	return out
}

// okapiScores is summed BM25 over the documents containing the term,
// with k1 = 1.2, b = 0.75. The sum runs in ascending document order,
// so a term's low bits, and with them ranking ties, are fixed.
func (e *Extractor) okapiScores() []float64 {
	const k1, b = 1.2, 0.75
	n := float64(e.c.NumDocs())
	avg := e.c.AvgDocLen()
	out := make([]float64, len(e.t.cands))
	for i, c := range e.t.cands {
		df := float64(len(c.docs))
		idf := math.Log((n-df+0.5)/(df+0.5) + 1)
		var score float64
		perDocTF := float64(c.freq) / df // mean tf per containing doc
		for _, d := range c.docs {
			dl := float64(len(e.c.Tokens(int(d))))
			score += idf * (perDocTF * (k1 + 1)) / (perDocTF + k1*(1-b+b*dl/avg))
		}
		out[i] = score
	}
	return out
}

// harmonic combines two score lists with the harmonic mean after
// min-max normalization — the F-TFIDF-C combination.
func harmonic(a, b []float64) []float64 {
	na, nb := minMaxNormalize(a), minMaxNormalize(b)
	out := make([]float64, len(a))
	for i := range a {
		x, y := na[i], nb[i]
		if x+y == 0 {
			out[i] = 0
			continue
		}
		out[i] = 2 * x * y / (x + y)
	}
	return out
}

func minMaxNormalize(v []float64) []float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range v {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	out := make([]float64, len(v))
	if hi == lo {
		for i := range out {
			out[i] = 1
		}
		return out
	}
	for i, x := range v {
		out[i] = (x - lo) / (hi - lo)
	}
	return out
}
