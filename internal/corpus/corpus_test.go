package corpus

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"bioenrich/internal/sparse"
	"bioenrich/internal/textutil"
)

func buildTestCorpus() *Corpus {
	c := New(textutil.English)
	c.AddAll([]Document{
		{ID: "d1", Title: "Corneal injury", Text: "The corneal injury healed after treatment. Corneal injury is painful."},
		{ID: "d2", Title: "Eye disease", Text: "Chronic eye disease includes corneal injury and corneal ulcer."},
		{ID: "d3", Title: "Treatment", Text: "Treatment of the eye requires amniotic membrane transplantation."},
	})
	c.Build()
	return c
}

func TestBuildCounts(t *testing.T) {
	c := buildTestCorpus()
	if c.NumDocs() != 3 {
		t.Fatalf("docs = %d", c.NumDocs())
	}
	if c.NumTokens() == 0 || c.Vocabulary() == 0 {
		t.Fatal("empty index")
	}
	if c.AvgDocLen() <= 0 {
		t.Error("AvgDocLen <= 0")
	}
}

func TestTokenStats(t *testing.T) {
	c := buildTestCorpus()
	// "corneal" appears in d1 (title 1 + text 2) and d2 (1): tf=5, df=2.
	if got := c.TF("corneal"); got != 5 {
		t.Errorf("TF(corneal) = %d, want 5", got)
	}
	if got := c.DF("corneal"); got != 2 {
		t.Errorf("DF(corneal) = %d, want 2", got)
	}
	if got := c.TF("absent"); got != 0 {
		t.Errorf("TF(absent) = %d", got)
	}
}

func TestMultiwordOccurrences(t *testing.T) {
	c := buildTestCorpus()
	occ := c.Occurrences("corneal injury")
	if len(occ) != 4 {
		t.Fatalf("occurrences = %d, want 4 (%v)", len(occ), occ)
	}
	if c.TF("corneal injury") != 4 {
		t.Error("TF mismatch")
	}
	if c.DF("corneal injury") != 2 {
		t.Errorf("DF = %d, want 2", c.DF("corneal injury"))
	}
	// Case/spacing insensitive.
	if c.TF("Corneal  INJURY") != 4 {
		t.Error("normalization in Occurrences failed")
	}
	if c.TF("") != 0 {
		t.Error("empty term TF != 0")
	}
	if c.TF("corneal treatment") != 0 {
		t.Error("non-adjacent pair matched")
	}
}

func TestContexts(t *testing.T) {
	c := buildTestCorpus()
	ctxs := c.Contexts("corneal injury", 5)
	if len(ctxs) != 4 {
		t.Fatalf("contexts = %d", len(ctxs))
	}
	for _, ctx := range ctxs {
		for _, w := range ctx.Words {
			if w == "corneal" || w == "injury" {
				t.Errorf("term word %q leaked into context", w)
			}
			if textutil.IsStopword(w, textutil.English) {
				t.Errorf("stopword %q in context", w)
			}
		}
	}
}

// TestContextsShareOneArray: every window's words come from one
// array, so each Words is capped at its own length: appending to one
// window copies it and leaves the next window's words intact.
func TestContextsShareOneArray(t *testing.T) {
	c := buildTestCorpus()
	ctxs := c.Contexts("corneal injury", 5)
	if len(ctxs) < 2 || len(ctxs[0].Words) == 0 || len(ctxs[1].Words) == 0 {
		t.Fatalf("fixture gives %d contexts, want two non-empty ones first", len(ctxs))
	}
	next := slices.Clone(ctxs[1].Words)
	for i := range ctxs {
		if cap(ctxs[i].Words) != len(ctxs[i].Words) {
			t.Errorf("window %d: cap %d, len %d", i, cap(ctxs[i].Words), len(ctxs[i].Words))
		}
	}
	grown := append(ctxs[0].Words, "appended")
	if !slices.Equal(ctxs[1].Words, next) {
		t.Errorf("appending to window 0 changed window 1: %q, was %q", ctxs[1].Words, next)
	}
	if grown[len(grown)-1] != "appended" {
		t.Error("append lost its word")
	}
}

func TestContextVector(t *testing.T) {
	c := buildTestCorpus()
	v := c.ContextVector("corneal injury", 6)
	if len(v) == 0 {
		t.Fatal("empty context vector")
	}
	if v["healed"] == 0 {
		t.Errorf("expected 'healed' in context vector: %v", v)
	}
}

// TestEachContextWordSumsTerms: counting several terms' context words
// into one vector gives exactly the sum of their ContextVectors, and
// each ContextVector counts exactly the words Contexts returns — the
// two views of the one window scan agree.
func TestEachContextWordSumsTerms(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		c := randomCorpus(seed, 8)
		terms := []string{"alpha", "Beta  GAMMA", "delta epsilon", "absent"}
		got, want := sparse.New(0), sparse.New(0)
		for _, term := range terms {
			c.EachContextWord(term, 3, func(w string) { got[w]++ })
			tv := c.ContextVector(term, 3)
			var words []string
			for _, ctx := range c.Contexts(term, 3) {
				words = append(words, ctx.Words...)
			}
			if fc := sparse.FromCounts(words); !reflect.DeepEqual(tv, fc) {
				t.Fatalf("seed %d %q: ContextVector %v, Contexts count %v", seed, term, tv, fc)
			}
			want.Add(tv)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: EachContextWord counts %v, summed ContextVectors %v", seed, got, want)
		}
	}
}

// TestEachContextWordAllocs pins what keeps profile rebuilds cheap for
// the collector: scanning a term's context words allocates a fixed
// amount per call, however often the term occurs.
func TestEachContextWordAllocs(t *testing.T) {
	c := New(textutil.English)
	for d := 0; d < 200; d++ {
		text := "frequent marker sits beside cornea lens retina"
		if d == 0 {
			text += " rare cornea lens"
		}
		c.Add(Document{ID: fmt.Sprint(d), Text: text})
	}
	c.Build()
	if c.TF("frequent") != 200 || c.TF("rare") != 1 {
		t.Fatalf("fixture: tf frequent %d, rare %d", c.TF("frequent"), c.TF("rare"))
	}
	n := 0
	word := func(string) { n++ }
	frequent := testing.AllocsPerRun(20, func() { c.EachContextWord("frequent", 8, word) })
	rare := testing.AllocsPerRun(20, func() { c.EachContextWord("rare", 8, word) })
	if frequent != rare {
		t.Errorf("EachContextWord allocates %v times for a term with 200 occurrences, %v for one with 1", frequent, rare)
	}
}

func TestTermCooccurrenceGraph(t *testing.T) {
	c := buildTestCorpus()
	g, err := c.TermCooccurrenceGraph(context.Background(), []string{"corneal injury", "corneal ulcer", "eye disease"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasNode("corneal injury") {
		t.Fatal("vocab node missing")
	}
	// d2 contains all three within one sentence region.
	if !g.HasEdge("corneal injury", "corneal ulcer") {
		t.Error("expected co-occurrence edge injury–ulcer")
	}
}

// TestTermCooccurrenceGraphCancelled: a cancelled context stops the
// build with its error and no graph.
func TestTermCooccurrenceGraphCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g, err := buildTestCorpus().TermCooccurrenceGraph(ctx, []string{"corneal injury", "corneal ulcer"}, 10)
	if !errors.Is(err, context.Canceled) || g != nil {
		t.Errorf("TermCooccurrenceGraph(cancelled) = %v, %v; want nil, context.Canceled", g, err)
	}
}

func TestEgoCooccurrence(t *testing.T) {
	c := buildTestCorpus()
	g := c.EgoCooccurrence("corneal injury", 5)
	if !g.HasNode("corneal injury") {
		t.Fatal("ego center missing")
	}
	if g.Degree("corneal injury") == 0 {
		t.Error("ego center isolated")
	}
}

func TestPersistRoundTrip(t *testing.T) {
	c := buildTestCorpus()
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumDocs() != c.NumDocs() || c2.Lang() != c.Lang() {
		t.Error("round trip lost documents or language")
	}
	if c2.TF("corneal injury") != c.TF("corneal injury") {
		t.Error("round trip index differs")
	}
}

func TestReadFromBadFormat(t *testing.T) {
	if _, err := ReadFrom(bytes.NewBufferString(`{"format":"nope"}`)); err == nil {
		t.Error("expected format error")
	}
	if _, err := ReadFrom(bytes.NewBufferString(`not json`)); err == nil {
		t.Error("expected decode error")
	}
}

func TestQueryBeforeBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	c := New(textutil.English)
	c.Add(Document{ID: "x", Text: "text"})
	c.TF("text") // index not built
}

func TestFrenchCorpusStopwords(t *testing.T) {
	c := New(textutil.French)
	c.Add(Document{ID: "f1", Text: "La maladie de crohn est une maladie chronique."})
	c.Build()
	g := c.EgoCooccurrence("maladie", 5)
	if g.HasNode("la") || g.HasNode("de") {
		t.Error("french stopwords leaked into graph")
	}
	if c.TF("maladie") != 2 {
		t.Errorf("TF(maladie) = %d", c.TF("maladie"))
	}
}
