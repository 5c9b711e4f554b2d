// Package termex implements step I of the workflow: BIOTEX-style
// biomedical term extraction. Candidate terms are harvested with the
// POS patterns of package postag and ranked with the measures of the
// authors' companion methodology paper (Lossio-Ventura et al., IRJ
// 2016): C-value, TF-IDF, Okapi BM25, F-TFIDF-C and LIDF-value.
package termex

import (
	"fmt"
	"math"
	"sort"
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

	// candidate statistics, built once by Scan
	freq     map[string]int          // candidate occurrences
	docs     map[string]map[int]bool // candidate -> doc set
	patterns map[string]string       // candidate -> tag pattern ("JJ NN")
	scanned  bool

	// pattern model for LIDF-value; uniform when no reference is set
	patternProb map[string]float64
}

// NewExtractor builds an extractor over a built corpus.
func NewExtractor(c *corpus.Corpus) *Extractor {
	return &Extractor{
		c:      c,
		tagger: postag.NewTagger(c.Lang()),
		freq:   make(map[string]int),
		docs:   make(map[string]map[int]bool),
	}
}

// Scan harvests candidates from every document. Called implicitly by
// Rank; exposed for callers that want the raw candidate table.
func (e *Extractor) Scan() {
	if e.scanned {
		return
	}
	e.patterns = make(map[string]string)
	for d := 0; d < e.c.NumDocs(); d++ {
		doc := e.c.Doc(d)
		text := doc.Title + ". " + doc.Text
		for _, sentence := range textutil.Sentences(text) {
			tagged := e.tagger.TagSentence(sentence)
			for _, cand := range postag.Candidates(tagged, e.c.Lang()) {
				term := cand.Term()
				e.freq[term]++
				set := e.docs[term]
				if set == nil {
					set = make(map[int]bool)
					e.docs[term] = set
				}
				set[d] = true
				if _, ok := e.patterns[term]; !ok {
					e.patterns[term] = patternOf(tagged[cand.Start : cand.Start+len(cand.Words)])
				}
			}
		}
	}
	e.scanned = true
}

func patternOf(span []postag.TaggedWord) string {
	parts := make([]string, len(span))
	for i, tw := range span {
		parts[i] = tw.Tag.String()
	}
	return strings.Join(parts, " ")
}

// NumCandidates returns the number of distinct candidates found.
func (e *Extractor) NumCandidates() int {
	e.Scan()
	return len(e.freq)
}

// Freq returns a candidate's occurrence count (0 if never harvested).
func (e *Extractor) Freq(term string) int {
	e.Scan()
	return e.freq[textutil.NormalizeTerm(term)]
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

// patternProbability returns P(pattern) for a candidate, with a small
// floor so unseen patterns rank low but non-zero.
func (e *Extractor) patternProbability(term string) float64 {
	if e.patternProb == nil {
		return 1 // no model: LIDF degrades to idf × C-value
	}
	const floor = 1e-3
	if p, ok := e.patternProb[e.patterns[term]]; ok && p > floor {
		return p
	}
	return floor
}

// Rank scores every candidate with the measure and returns the top n
// (n ≤ 0 means all), ties broken lexically for determinism.
func (e *Extractor) Rank(m Measure, n int) ([]ScoredTerm, error) {
	e.Scan()
	scores, err := e.scoreAll(m)
	if err != nil {
		return nil, err
	}
	out := make([]ScoredTerm, 0, len(scores))
	for term, s := range scores {
		out = append(out, ScoredTerm{
			Term:  term,
			Score: s,
			Freq:  e.freq[term],
			Docs:  len(e.docs[term]),
			Words: textutil.WordCount(term),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Term < out[j].Term
	})
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out, nil
}

// scoreAll computes the chosen measure for every candidate.
func (e *Extractor) scoreAll(m Measure) (map[string]float64, error) {
	switch m {
	case CValue:
		return e.cValues(), nil
	case TFIDF:
		return e.tfidfScores(), nil
	case Okapi:
		return e.okapiScores(), nil
	case FTFIDFC:
		return harmonic(e.tfidfScores(), e.cValues()), nil
	case LIDF:
		cv := e.cValues()
		out := make(map[string]float64, len(cv))
		n := float64(e.c.NumDocs())
		for term, c := range cv {
			idf := math.Log(n / float64(len(e.docs[term])))
			out[term] = e.patternProbability(term) * idf * c
		}
		return out, nil
	case TeRGraph:
		return e.terGraphScores(), nil
	}
	return nil, fmt.Errorf("termex: unknown measure %q", m)
}

// cValues implements Frantzi's C-value over the harvested candidates:
//
//	C-value(a) = log2(|a|+1) · f(a)                      if a is not nested
//	C-value(a) = log2(|a|+1) · (f(a) − mean_{b⊃a} f(b))  otherwise
func (e *Extractor) cValues() map[string]float64 {
	nestedFreq := make(map[string]int)
	nestedIn := make(map[string]int)
	for longer, f := range e.freq {
		for _, sub := range textutil.SubTerms(longer) {
			if _, isCand := e.freq[sub]; isCand {
				nestedFreq[sub] += f
				nestedIn[sub]++
			}
		}
	}
	out := make(map[string]float64, len(e.freq))
	for term, f := range e.freq {
		l := math.Log2(float64(textutil.WordCount(term)) + 1)
		score := float64(f)
		if n := nestedIn[term]; n > 0 {
			score -= float64(nestedFreq[term]) / float64(n)
		}
		out[term] = l * score
	}
	return out
}

// tfidfScores is candidate tf × log(N/df).
func (e *Extractor) tfidfScores() map[string]float64 {
	out := make(map[string]float64, len(e.freq))
	n := float64(e.c.NumDocs())
	for term, f := range e.freq {
		idf := math.Log(n / float64(len(e.docs[term])))
		out[term] = float64(f) * idf
	}
	return out
}

// okapiScores is summed BM25 over the documents containing the term,
// with k1 = 1.2, b = 0.75. The sum runs in ascending document order,
// so a term's low bits, and with them ranking ties, do not depend on
// map iteration order.
func (e *Extractor) okapiScores() map[string]float64 {
	const k1, b = 1.2, 0.75
	n := float64(e.c.NumDocs())
	avg := e.c.AvgDocLen()
	out := make(map[string]float64, len(e.freq))
	var docs []int
	for term, docSet := range e.docs {
		df := float64(len(docSet))
		idf := math.Log((n-df+0.5)/(df+0.5) + 1)
		var score float64
		perDocTF := float64(e.freq[term]) / df // mean tf per containing doc
		docs = docs[:0]
		for d := range docSet {
			docs = append(docs, d)
		}
		sort.Ints(docs)
		for _, d := range docs {
			dl := float64(len(e.c.Tokens(d)))
			score += idf * (perDocTF * (k1 + 1)) / (perDocTF + k1*(1-b+b*dl/avg))
		}
		out[term] = score
	}
	return out
}

// harmonic combines two score maps with the harmonic mean after
// min-max normalization — the F-TFIDF-C combination.
func harmonic(a, b map[string]float64) map[string]float64 {
	na, nb := minMaxNormalize(a), minMaxNormalize(b)
	out := make(map[string]float64, len(a))
	for term := range a {
		x, y := na[term], nb[term]
		if x+y == 0 {
			out[term] = 0
			continue
		}
		out[term] = 2 * x * y / (x + y)
	}
	return out
}

func minMaxNormalize(m map[string]float64) map[string]float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range m {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	out := make(map[string]float64, len(m))
	if hi == lo {
		for k := range m {
			out[k] = 1
		}
		return out
	}
	for k, v := range m {
		out[k] = (v - lo) / (hi - lo)
	}
	return out
}
