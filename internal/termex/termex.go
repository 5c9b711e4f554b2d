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

	// The candidate table, built once by Scan: one row per distinct
	// candidate in order of first occurrence, and its index by term
	// (nil until a scan completes).
	cands  []cand
	byTerm map[string]int

	// pattern model for LIDF-value; uniform when no reference is set
	patternProb map[string]float64
}

// cand is one row of the candidate table.
type cand struct {
	term    string  // normalized words joined by single spaces
	freq    int     // occurrences
	docs    []int32 // the documents it occurs in, ascending
	pattern string  // tag pattern ("JJ NN")
	words   int     // length in words
}

// NewExtractor builds an extractor over a built corpus.
func NewExtractor(c *corpus.Corpus) *Extractor {
	return &Extractor{c: c, tagger: postag.NewTagger(c.Lang())}
}

// Scan harvests candidates from every document into the candidate
// table, once; Rank calls it. It checks ctx once per document, and a
// cancelled scan returns ctx's error and keeps no partial table.
//
// A span's term is built in one reused buffer and looked up without
// a conversion, so a candidate costs a string only the first time it
// is seen; each distinct raw token is normalized and tagged once.
func (e *Extractor) Scan(ctx context.Context) error {
	if e.byTerm != nil {
		return nil
	}
	lang := e.c.Lang()
	var cands []cand
	byTerm := make(map[string]int)
	memo := make(map[string]postag.TaggedWord) // raw token -> its tagged form
	var (
		tagged []postag.TaggedWord
		spans  []postag.Candidate
		key    []byte
	)
	for d := 0; d < e.c.NumDocs(); d++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("termex: scan: %w", err)
		}
		doc := e.c.Doc(d)
		for _, sentence := range textutil.Sentences(doc.Title + ". " + doc.Text) {
			tagged = tagged[:0]
			for _, tok := range textutil.Tokenize(sentence) {
				tw, ok := memo[tok.Text]
				if !ok {
					w := textutil.Normalize(tok.Text)
					tw = postag.TaggedWord{Word: w, Tag: e.tagger.TagWord(w)}
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
					i = len(cands)
					cands = append(cands, cand{term: string(key), pattern: patternOf(span), words: sp.Len})
					byTerm[cands[i].term] = i
				}
				c := &cands[i]
				c.freq++
				if n := len(c.docs); n == 0 || c.docs[n-1] != int32(d) {
					c.docs = append(c.docs, int32(d))
				}
			}
		}
	}
	e.cands, e.byTerm = cands, byTerm
	return nil
}

func patternOf(span []postag.TaggedWord) string {
	parts := make([]string, len(span))
	for i, tw := range span {
		parts[i] = tw.Tag.String()
	}
	return strings.Join(parts, " ")
}

// NumCandidates returns the number of distinct candidates found by
// Scan or Rank (0 before either has run).
func (e *Extractor) NumCandidates() int {
	return len(e.cands)
}

// Freq returns a candidate's occurrence count (0 if never harvested,
// or before Scan or Rank has run).
func (e *Extractor) Freq(term string) int {
	i, ok := e.byTerm[textutil.NormalizeTerm(term)]
	if !ok {
		return 0
	}
	return e.cands[i].freq
}

// LearnPatterns fits the LIDF-value pattern model from a reference
// terminology (the paper learns pattern probabilities from terms
// already present in UMLS/MeSH): each reference term is tagged and its
// tag sequence counted; P(pattern) = count/total.
func (e *Extractor) LearnPatterns(referenceTerms []string) {
	counts := make(map[string]int)
	total := 0
	for _, term := range referenceTerms {
		tagged := e.tagger.Tag(strings.Fields(textutil.NormalizeTerm(term)))
		counts[patternOf(tagged)]++
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

// Rank scans the corpus if it has not been scanned, scores every
// candidate with the measure and returns the top n (n ≤ 0 means all),
// ties broken lexically for determinism. A measure not in Measures is
// an error before any scan. A cancelled ctx stops the scan and returns
// its error.
func (e *Extractor) Rank(ctx context.Context, m Measure, n int) ([]ScoredTerm, error) {
	if !slices.Contains(Measures, m) {
		return nil, fmt.Errorf("termex: unknown measure %q", m)
	}
	if err := e.Scan(ctx); err != nil {
		return nil, err
	}
	scores := e.scoreAll(m)
	out := make([]ScoredTerm, len(e.cands))
	for i, c := range e.cands {
		out[i] = ScoredTerm{Term: c.term, Score: scores[i], Freq: c.freq, Docs: len(c.docs), Words: c.words}
	}
	slices.SortFunc(out, func(a, b ScoredTerm) int {
		if a.Score != b.Score {
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Term, b.Term)
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out, nil
}

// scoreAll computes the chosen measure, one of Measures, for every
// candidate, aligned with the candidate table.
func (e *Extractor) scoreAll(m Measure) []float64 {
	switch m {
	case CValue:
		return e.cValues()
	case TFIDF:
		return e.tfidfScores()
	case Okapi:
		return e.okapiScores()
	case FTFIDFC:
		return harmonic(e.tfidfScores(), e.cValues())
	case LIDF:
		out := e.cValues()
		n := float64(e.c.NumDocs())
		for i, c := range e.cands {
			idf := math.Log(n / float64(len(c.docs)))
			out[i] = e.patternProbability(c.pattern) * idf * out[i]
		}
		return out
	default: // TeRGraph
		return e.terGraphScores()
	}
}

// cValues implements Frantzi's C-value over the harvested candidates:
//
//	C-value(a) = log2(|a|+1) · f(a)                      if a is not nested
//	C-value(a) = log2(|a|+1) · (f(a) − mean_{b⊃a} f(b))  otherwise
//
// A term nested twice in b counts b twice.
func (e *Extractor) cValues() []float64 {
	nestedFreq := make([]int, len(e.cands))
	nestedIn := make([]int, len(e.cands))
	var subs []string
	for _, longer := range e.cands {
		subs = appendSubTerms(subs[:0], longer.term)
		for _, sub := range subs {
			if j, isCand := e.byTerm[sub]; isCand {
				nestedFreq[j] += longer.freq
				nestedIn[j]++
			}
		}
	}
	out := make([]float64, len(e.cands))
	for i, c := range e.cands {
		l := math.Log2(float64(c.words) + 1)
		score := float64(c.freq)
		if n := nestedIn[i]; n > 0 {
			score -= float64(nestedFreq[i]) / float64(n)
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
	out := make([]float64, len(e.cands))
	n := float64(e.c.NumDocs())
	for i, c := range e.cands {
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
	out := make([]float64, len(e.cands))
	for i, c := range e.cands {
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
