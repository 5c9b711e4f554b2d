package termex

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/postag"
	"bioenrich/internal/textutil"
)

func termCorpus() *corpus.Corpus {
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "The corneal injury was a severe corneal injury. Corneal injury affects vision."},
		{ID: "2", Text: "Severe corneal injury requires treatment. The corneal ulcer was treated."},
		{ID: "3", Text: "Treatment of infection is standard. The infection was bacterial infection."},
		{ID: "4", Text: "Amniotic membrane transplantation heals the damaged cornea quickly."},
	})
	c.Build()
	return c
}

func scoresOf(t *testing.T, e *Extractor, m Measure) map[string]float64 {
	t.Helper()
	ranked, err := e.Rank(context.Background(), m, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64, len(ranked))
	for _, s := range ranked {
		out[s.Term] = s.Score
	}
	return out
}

func TestScanFindsCandidates(t *testing.T) {
	e := NewExtractor(termCorpus())
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.NumCandidates() == 0 {
		t.Fatal("no candidates")
	}
	if e.Freq("corneal injury") < 4 {
		t.Errorf("freq(corneal injury) = %d", e.Freq("corneal injury"))
	}
	if e.Freq("the corneal") != 0 {
		t.Error("determiner-initial candidate extracted")
	}
}

func TestAllMeasuresProduceFiniteScores(t *testing.T) {
	e := NewExtractor(termCorpus())
	for _, m := range Measures {
		ranked, err := e.Rank(context.Background(), m, 10)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(ranked) == 0 {
			t.Fatalf("%s: empty ranking", m)
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score > ranked[i-1].Score {
				t.Errorf("%s: ranking not descending at %d", m, i)
			}
		}
	}
}

func TestUnknownMeasure(t *testing.T) {
	e := NewExtractor(termCorpus())
	if _, err := e.Rank(context.Background(), "bogus", 5); err == nil {
		t.Error("unknown measure accepted")
	}
}

func TestCValueNestedPenalty(t *testing.T) {
	// "corneal" occurs alone only nested inside "corneal injury" /
	// "severe corneal injury", so its C-value is penalized relative to
	// raw frequency.
	e := NewExtractor(termCorpus())
	cv := scoresOf(t, e, CValue)
	// The multi-word term beats its nested unigram despite lower raw
	// frequency of the bigram being possible.
	if cv["corneal injury"] <= cv["corneal"] {
		t.Errorf("C-value: nested unigram %v >= containing term %v",
			cv["corneal"], cv["corneal injury"])
	}
}

func TestCValueLengthFactor(t *testing.T) {
	e := NewExtractor(termCorpus())
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	cv := e.t.cValues()
	// A never-nested term of length 2 with freq f scores log2(3)*f.
	i := slices.IndexFunc(e.t.cands, func(c cand) bool { return c.term == "amniotic membrane" })
	if i < 0 {
		t.Skip("candidate pattern changed")
	}
	f := float64(e.t.cands[i].freq)
	want := 1.5849625007211562 * (f - avgNested(e, "amniotic membrane"))
	if diff := cv[i] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("C-value = %v, want %v", cv[i], want)
	}
}

func avgNested(e *Extractor, term string) float64 {
	total, n := 0, 0
	for _, longer := range e.t.cands {
		for _, sub := range subTermsOf(longer.term) {
			if sub == term {
				total += int(longer.freq)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// subTermsOf is appendSubTerms' reference: every proper contiguous
// sub-phrase of the term, split into words and joined again.
func subTermsOf(term string) []string {
	words := strings.Fields(term)
	var out []string
	for n := 1; n < len(words); n++ {
		for i := 0; i+n <= len(words); i++ {
			out = append(out, strings.Join(words[i:i+n], " "))
		}
	}
	return out
}

// TestSubTerms: appendSubTerms gives every proper sub-phrase, shortest
// first, a repeated word once per position, after what dst holds.
func TestSubTerms(t *testing.T) {
	got := appendSubTerms(nil, "corneal injury severity")
	want := []string{
		"corneal", "injury", "severity",
		"corneal injury", "injury severity",
	}
	if !slices.Equal(got, want) {
		t.Errorf("appendSubTerms = %v, want %v", got, want)
	}
	if got := appendSubTerms(nil, "single"); got != nil {
		t.Errorf("appendSubTerms(single) = %v, want nil", got)
	}
	for _, term := range []string{"a b a", "infection de la infection", "x y z w"} {
		got := appendSubTerms([]string{"kept"}, term)
		if want := append([]string{"kept"}, subTermsOf(term)...); !slices.Equal(got, want) {
			t.Errorf("appendSubTerms(%q) = %q, want %q", term, got, want)
		}
	}
}

func TestTFIDFZeroForUbiquitous(t *testing.T) {
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "keratitis everywhere."},
		{ID: "2", Text: "keratitis again."},
	})
	c.Build()
	e := NewExtractor(c)
	scores := scoresOf(t, e, TFIDF)
	if scores["keratitis"] != 0 {
		t.Errorf("tf-idf of term in every doc = %v, want 0", scores["keratitis"])
	}
}

func TestFTFIDFCBetweenComponents(t *testing.T) {
	e := NewExtractor(termCorpus())
	f := scoresOf(t, e, FTFIDFC)
	for term, v := range f {
		if v < 0 || v > 1+1e-9 {
			t.Errorf("F-TFIDF-C(%s) = %v outside [0,1]", term, v)
		}
	}
}

func TestLIDFWithPatternModel(t *testing.T) {
	e := NewExtractor(termCorpus())
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Reference terminology of JJ NN / NN NN shapes.
	e.LearnPatterns([]string{
		"corneal diseases", "eye injuries", "bacterial infection",
		"chronic disease", "viral keratitis",
	})
	lidf := scoresOf(t, e, LIDF)
	if len(lidf) == 0 {
		t.Fatal("no LIDF scores")
	}
	// A candidate matching a reference pattern (JJ NN, e.g. "bacterial
	// infection") outranks one with an unseen pattern and comparable
	// frequency, because unseen patterns get the probability floor.
	if lidf["bacterial infection"] <= 0 {
		t.Errorf("lidf(bacterial infection) = %v", lidf["bacterial infection"])
	}
}

func TestRankTopN(t *testing.T) {
	e := NewExtractor(termCorpus())
	top3, err := e.Rank(context.Background(), CValue, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top3) != 3 {
		t.Errorf("top3 = %d entries", len(top3))
	}
	all, _ := e.Rank(context.Background(), CValue, 0)
	if len(all) <= 3 {
		t.Errorf("Rank(0) returned %d", len(all))
	}
}

func TestOkapiPositive(t *testing.T) {
	e := NewExtractor(termCorpus())
	ok := scoresOf(t, e, Okapi)
	for term, v := range ok {
		if v < 0 {
			t.Errorf("okapi(%s) = %v < 0", term, v)
		}
	}
	if ok["corneal injury"] == 0 {
		t.Error("okapi of frequent term is 0")
	}
}

func TestFrenchExtraction(t *testing.T) {
	c := corpus.New(textutil.French)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "La maladie de crohn est une maladie chronique. La maladie de crohn provoque une infection."},
	})
	c.Build()
	e := NewExtractor(c)
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Freq("maladie de crohn") != 2 {
		t.Errorf("freq(maladie de crohn) = %d", e.Freq("maladie de crohn"))
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n+1st call on; its Done never closes. It cancels a step I call at a
// chosen check.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func newCancelAfter(n int32) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.n.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// hasTable reports whether c keeps a candidate table, without building
// one.
func hasTable(t *testing.T, c *corpus.Corpus) bool {
	t.Helper()
	errEmpty := errors.New("empty slot")
	v, err := c.Derived(context.Background(), func() (any, error) { return nil, errEmpty })
	if err != nil && !errors.Is(err, errEmpty) {
		t.Fatal(err)
	}
	return v != nil
}

// TestRankCancelled: a context cancelled during the scan stops it with
// its error and leaves no table on the corpus, so a later Rank scans
// afresh.
func TestRankCancelled(t *testing.T) {
	c := termCorpus()
	e := NewExtractor(c)
	// The first check, on entry to Rank, passes; the scan's first
	// per-document check fails.
	if _, err := e.Rank(newCancelAfter(1), LIDF, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rank(cancelled) error = %v, want context.Canceled", err)
	}
	if n := e.NumCandidates(); n != 0 {
		t.Errorf("cancelled scan kept %d candidates", n)
	}
	if hasTable(t, c) {
		t.Error("cancelled scan left a table on the corpus")
	}
	got, err := e.Rank(context.Background(), LIDF, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewExtractor(termCorpus()).Rank(context.Background(), LIDF, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Rank after a cancelled scan = %v, want %v", got, want)
	}
}

// TestRankCancelledAfterScan: once the corpus is scanned, Rank still
// returns a cancelled context's error, through the extractor that
// scanned and through a new one that reads the kept table.
func TestRankCancelledAfterScan(t *testing.T) {
	c := termCorpus()
	e := NewExtractor(c)
	if err := e.Scan(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, ext := range map[string]*Extractor{"scanned": e, "new": NewExtractor(c)} {
		if got, err := ext.Rank(ctx, LIDF, 5); !errors.Is(err, context.Canceled) || got != nil {
			t.Errorf("%s extractor: Rank(cancelled) = %v, %v; want nil, context.Canceled", name, got, err)
		}
	}
}

// TestRankLineage: a corpus's ranking follows its lineage. Clone +
// AppendBuild ranks as AddAll + Build of the same documents, ranking
// the clone leaves the original's ranking as it was, and Build after a
// ranking drops the table.
func TestRankLineage(t *testing.T) {
	more := []corpus.Document{
		{ID: "5", Text: "Bacterial keratitis follows corneal injury. Severe bacterial keratitis needs treatment."},
		{ID: "6", Text: "The corneal ulcer healed after amniotic membrane transplantation."},
	}
	rank := func(c *corpus.Corpus) []ScoredTerm {
		t.Helper()
		got, err := NewExtractor(c).Rank(context.Background(), LIDF, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	orig := termCorpus()
	before := rank(orig)

	full := termCorpus()
	full.AddAll(more)
	full.Build()
	want := rank(full)

	cl := orig.Clone()
	cl.AppendBuild(more)
	if got := rank(cl); !slices.Equal(got, want) {
		t.Errorf("Clone + AppendBuild ranks %v, want %v", got, want)
	}
	if got := rank(orig); !slices.Equal(got, before) {
		t.Errorf("original after its clone grew ranks %v, want %v", got, before)
	}

	orig.Build()
	if hasTable(t, orig) {
		t.Error("Build after a ranking kept the table")
	}
	orig.AddAll(more)
	orig.Build()
	if got := rank(orig); !slices.Equal(got, want) {
		t.Errorf("AddAll + Build after a ranking ranks %v, want %v", got, want)
	}
}

// TestRankConcurrent: goroutines ranking one fresh corpus with
// different measures share one table, and each gets the ranking a
// single goroutine gets.
func TestRankConcurrent(t *testing.T) {
	want := make(map[Measure][]ScoredTerm)
	for _, m := range Measures {
		got, err := NewExtractor(termCorpus()).Rank(context.Background(), m, 0)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = got
	}
	c := termCorpus()
	var wg sync.WaitGroup
	for _, m := range append(slices.Clone(Measures), Measures...) {
		wg.Add(1)
		go func(m Measure) {
			defer wg.Done()
			got, err := NewExtractor(c).Rank(context.Background(), m, 0)
			if err != nil {
				t.Error(err)
				return
			}
			if !slices.Equal(got, want[m]) {
				t.Errorf("%s: concurrent ranking %v, want %v", m, got, want[m])
			}
		}(m)
	}
	wg.Wait()
}

// TestRankingMatchesSort: the heap hands out indices in exactly the
// order of a full sort by score descending, then term, ties included.
func TestRankingMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		cands := make([]cand, n)
		scores := make([]float64, n)
		for i := range cands {
			cands[i].term = fmt.Sprintf("t%03d", rng.Intn(1000)*1000+i)
			scores[i] = float64(rng.Intn(8)) / 4 // many ties
		}
		want := make([]int32, n)
		for i := range want {
			want[i] = int32(i)
		}
		slices.SortFunc(want, func(a, b int32) int {
			if scores[a] != scores[b] {
				if scores[a] > scores[b] {
					return -1
				}
				return 1
			}
			return strings.Compare(cands[a].term, cands[b].term)
		})
		r := newRanking(cands, scores)
		var got []int32
		for i, ok := r.next(); ok; i, ok = r.next() {
			got = append(got, i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: heap order %v, sort order %v", trial, got, want)
		}
	}
}

// TestWalkStopsEarly: Walk hands out Rank's order and stops when yield
// returns false.
func TestWalkStopsEarly(t *testing.T) {
	e := NewExtractor(termCorpus())
	all, err := e.Rank(context.Background(), CValue, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []ScoredTerm
	err = e.Walk(context.Background(), CValue, func(st ScoredTerm) bool {
		got = append(got, st)
		return len(got) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, all[:3]) {
		t.Errorf("Walk stopped at 3 gave %v, want %v", got, all[:3])
	}
}

// TestRankUnknownMeasure: an unknown measure is rejected before the
// corpus is scanned.
func TestRankUnknownMeasure(t *testing.T) {
	e := NewExtractor(termCorpus())
	if _, err := e.Rank(context.Background(), "bogus", 3); err == nil {
		t.Fatal("Rank(bogus) returned no error")
	}
	if n := e.NumCandidates(); n != 0 {
		t.Errorf("Rank(bogus) scanned the corpus: %d candidates", n)
	}
}

// TestScanAllocsPerDocument: the scan's allocations grow with the
// documents and sentences it reads, not with candidate occurrences.
// Doubling a corpus of one repeated document adds only per-document
// and per-sentence work (the sentence and token slices); every
// candidate and token is already in the table and the tag memo. It
// builds the table directly: Scan on one corpus would read the table
// kept by the first run.
func TestScanAllocsPerDocument(t *testing.T) {
	const (
		n         = 40
		sentences = 3
		budget    = 10 // allocations per added sentence
	)
	text := "The severe corneal injury was treated with amniotic membrane transplantation. " +
		"Chronic corneal injury of the damaged eye impairs vision. " +
		"Bacterial infection of the corneal ulcer delays epithelial healing"
	scanAllocs := func(docs int) float64 {
		c := corpus.New(textutil.English)
		for i := 0; i < docs; i++ {
			c.Add(corpus.Document{ID: fmt.Sprint(i), Text: text})
		}
		c.Build()
		tagger := postag.NewTagger(c.Lang())
		return testing.AllocsPerRun(5, func() {
			if _, err := newTable(context.Background(), c, tagger); err != nil {
				t.Fatal(err)
			}
		})
	}
	perDoc := (scanAllocs(2*n) - scanAllocs(n)) / n
	t.Logf("%.1f allocations per added document", perDoc)
	if perDoc > budget*sentences {
		t.Errorf("%.1f allocations per added %d-sentence document, want at most %d",
			perDoc, sentences, budget*sentences)
	}
}
