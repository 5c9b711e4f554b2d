package termex

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
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
	cv := e.cValues()
	// A never-nested term of length 2 with freq f scores log2(3)*f.
	i, ok := e.byTerm["amniotic membrane"]
	if !ok {
		t.Skip("candidate pattern changed")
	}
	f := float64(e.cands[i].freq)
	want := 1.5849625007211562 * (f - avgNested(e, "amniotic membrane"))
	if diff := cv[i] - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("C-value = %v, want %v", cv[i], want)
	}
}

func avgNested(e *Extractor, term string) float64 {
	total, n := 0, 0
	for _, longer := range e.cands {
		for _, sub := range subTermsOf(longer.term) {
			if sub == term {
				total += longer.freq
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

// TestRankCancelled: a cancelled context stops the scan with its
// error and leaves no partial table, so a later Rank scans afresh.
func TestRankCancelled(t *testing.T) {
	e := NewExtractor(termCorpus())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Rank(ctx, LIDF, 5); !errors.Is(err, context.Canceled) {
		t.Fatalf("Rank(cancelled) error = %v, want context.Canceled", err)
	}
	if n := e.NumCandidates(); n != 0 {
		t.Errorf("cancelled scan kept %d candidates", n)
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
// candidate and token is already in the table and the tag memo.
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
		return testing.AllocsPerRun(5, func() {
			if err := NewExtractor(c).Scan(context.Background()); err != nil {
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
