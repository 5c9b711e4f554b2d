package linkage

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

// scanPerOccurrence is the neighbourhood scan meshNeighbors replaced,
// kept as its reference: every occurrence's region is scanned on its
// own, and every gram of up to maxGramWords words in it is probed with
// HasTermBytes.
func scanPerOccurrence(c *corpus.Corpus, o *ontology.Ontology, cand string) []string {
	counts := make(map[string]int)
	candWords := len(strings.Fields(cand))
	seen := make(map[string]bool)
	var gram []byte
	for _, occ := range c.Occurrences(cand) {
		toks := c.Tokens(int(occ.Doc))
		lo := max(int(occ.Pos)-cooccurWindow, 0)
		hi := min(int(occ.Pos)+candWords+cooccurWindow, len(toks))
		clear(seen)
		for i := lo; i < hi; i++ {
			gram = gram[:0]
			for n := 1; n <= maxGramWords && i+n <= hi; n++ {
				if n > 1 {
					gram = append(gram, ' ')
				}
				gram = append(gram, toks[i+n-1]...)
				if string(gram) == cand || seen[string(gram)] {
					continue
				}
				if o.HasTermBytes(gram) {
					seen[string(gram)] = true
				}
			}
		}
		for g := range seen {
			counts[g]++
		}
	}
	terms := make([]string, 0, len(counts))
	for t := range counts {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool {
		if counts[terms[i]] != counts[terms[j]] {
			return counts[terms[i]] > counts[terms[j]]
		}
		return terms[i] < terms[j]
	})
	if len(terms) > maxNeighbors {
		terms = terms[:maxNeighbors]
	}
	return terms
}

// neighbourWords spell every generated document and term. Terms use
// the first few; "omega" is filler no term holds, so occurrences of a
// candidate can sit far apart.
var neighbourWords = []string{"alpha", "beta", "gamma", "delta", "kappa", "sigma", "theta", "zeta", "omega"}

// neighbourCase is a corpus, an ontology over it and the candidates to
// scan for.
type neighbourCase struct {
	c     *corpus.Corpus
	o     *ontology.Ontology
	cands []string
	grown bool // c is a Clone extended by AppendBuild
}

// genNeighbourCase spells a case from data, one byte per choice (a
// choice past the end of data reads 0). It draws terms of 1 to 5
// words, terms that are prefixes of earlier ones, candidates of 1 to 3
// words that may be ontology terms themselves, documents that start
// or end with a candidate, and may grow the corpus by Clone and
// AppendBuild.
func genNeighbourCase(data []byte) neighbourCase {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	vocab := 2 + next(7) // term words are neighbourWords[:vocab]
	phrase := func(words int) string {
		w := make([]string, words)
		for i := range w {
			w[i] = neighbourWords[next(vocab)]
		}
		return strings.Join(w, " ")
	}

	o := ontology.New("gen")
	var terms []string
	for i, n := 0, 1+next(250); i < n; i++ {
		t := phrase(1 + next(5))
		if len(terms) > 0 && next(4) == 0 {
			words := strings.Fields(terms[len(terms)-1])
			t = strings.Join(words[:1+next(len(words))], " ")
		}
		if _, err := o.AddConcept(ontology.ConceptID(fmt.Sprintf("C%d", i)), t); err != nil {
			panic(err)
		}
		terms = append(terms, t)
	}

	var cands []string
	for i, n := 0, 1+next(3); i < n; i++ {
		if next(3) == 0 {
			cands = append(cands, terms[next(len(terms))])
		} else {
			cands = append(cands, phrase(1+next(3)))
		}
	}

	var docs []corpus.Document
	for i, n := 0, 1+next(12); i < n; i++ {
		words := make([]string, next(160))
		for j := range words {
			if k := next(vocab + 2); k < vocab {
				words[j] = neighbourWords[k]
			} else {
				words[j] = "omega"
			}
		}
		if next(3) == 0 {
			words = append([]string{cands[next(len(cands))]}, words...)
		}
		if next(3) == 0 {
			words = append(words, cands[next(len(cands))])
		}
		docs = append(docs, corpus.Document{ID: fmt.Sprint(i), Text: strings.Join(words, " ")})
	}

	c := corpus.New(textutil.English)
	split := len(docs)
	if next(2) == 1 {
		split = next(len(docs) + 1)
	}
	c.AddAll(docs[:split])
	c.Build()
	grown := split < len(docs)
	if grown {
		c = c.Clone()
		c.AppendBuild(docs[split:])
	}
	return neighbourCase{c: c, o: o, cands: cands, grown: grown}
}

// checkNeighbourCase requires meshNeighbors to return what the
// per-occurrence scan returns for every candidate of the case.
func checkNeighbourCase(t *testing.T, nc neighbourCase) {
	t.Helper()
	l := New(nc.c, nc.o, DefaultOptions())
	for _, cand := range nc.cands {
		got, err := l.meshNeighbors(context.Background(), cand, nc.c.Contexts(cand, corpus.ContextWindow))
		if err != nil {
			t.Fatal(err)
		}
		if want := scanPerOccurrence(nc.c, nc.o, cand); !slices.Equal(got, want) {
			t.Fatalf("candidate %q: meshNeighbors = %q, per-occurrence scan = %q", cand, got, want)
		}
		for _, term := range got {
			if len(strings.Fields(term)) > maxGramWords {
				t.Fatalf("candidate %q: neighbour %q is longer than %d words", cand, term, maxGramWords)
			}
		}
	}
}

// TestMeshNeighborsMatchesPerOccurrenceScan holds the per-document
// scan to the per-occurrence one on generated cases, and requires the
// generator to have reached the cases the scan must get right.
func TestMeshNeighborsMatchesPerOccurrenceScan(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var capped, candIsTerm, multiWord, grown, edges, apart int
	for i := 0; i < 300; i++ {
		data := make([]byte, 2048)
		r.Read(data)
		nc := genNeighbourCase(data)
		checkNeighbourCase(t, nc)
		if nc.grown {
			grown++
		}
		for _, cand := range nc.cands {
			if len(scanPerOccurrence(nc.c, nc.o, cand)) == maxNeighbors {
				capped++
			}
			if nc.o.HasTerm(cand) {
				candIsTerm++
			}
			if strings.Contains(cand, " ") {
				multiWord++
			}
			words := len(strings.Fields(cand))
			occs := nc.c.Occurrences(cand)
			for j, occ := range occs {
				if occ.Pos == 0 || int(occ.Pos)+words == len(nc.c.Tokens(int(occ.Doc))) {
					edges++
				}
				if j > 0 && occs[j-1].Doc == occ.Doc && int(occ.Pos-occs[j-1].Pos) > words+2*cooccurWindow {
					apart++
				}
			}
		}
	}
	for what, n := range map[string]int{
		"a candidate with 40 neighbours":          capped,
		"a candidate that is an ontology term":    candIsTerm,
		"a multi-word candidate":                  multiWord,
		"a corpus grown by Clone and AppendBuild": grown,
		"an occurrence at a document's edge":      edges,
		"two disjoint regions in one document":    apart,
	} {
		if n == 0 {
			t.Errorf("the generator never made %s", what)
		}
	}
}

// FuzzMeshNeighbors holds the per-document scan to the per-occurrence
// one on cases spelled from the fuzzer's bytes.
func FuzzMeshNeighbors(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 16, 256, 2048} {
		data := make([]byte, n)
		r.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkNeighbourCase(t, genNeighbourCase(data))
	})
}
