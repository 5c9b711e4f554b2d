package corpus

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"bioenrich/internal/textutil"
)

// checkLineage fails the test unless c answers every query exactly as
// a corpus built from scratch over docs does (AddAll + Build). It reads
// c through its public queries only, so it holds whatever layout the
// index has.
func checkLineage(t testing.TB, c *Corpus, docs []Document) {
	t.Helper()
	full := New(c.Lang())
	full.AddAll(docs)
	full.Build()
	equalIndexed(t, c, full)
}

// lineageVocab is the shared vocabulary of the lineage tests: ordinary
// and stop words, so batches extend long posting lists as well as
// short ones.
var lineageVocab = []string{
	"corneal", "abrasion", "retinal", "lesion", "membrane", "graft",
	"the", "of", "with", "after", "and", "epithelium",
}

// lineageDoc returns a document of n words drawn from lineageVocab,
// with fresh words mixed in: fresh times, a word "w<k>" for a k drawn
// from the next few past *next, which then advances by fresh. Clones
// that carry on from the same *next therefore add many of the same
// new words, each in its own order.
func lineageDoc(rng *rand.Rand, id string, n, fresh int, next *int) Document {
	words := make([]string, 0, n+3*fresh)
	for i := 0; i < n; i++ {
		words = append(words, lineageVocab[rng.Intn(len(lineageVocab))])
	}
	for i := 0; i < fresh; i++ {
		w := fmt.Sprintf("w%d", *next+1+rng.Intn(fresh+2))
		words = append(words, w, lineageVocab[rng.Intn(len(lineageVocab))])
		if rng.Intn(2) == 0 {
			words = append(words, w) // a fresh word occurring twice
		}
	}
	*next += fresh
	rng.Shuffle(len(words), func(i, j int) { words[i], words[j] = words[j], words[i] })
	return Document{ID: id, Text: strings.Join(words, " ")}
}

// TestCloneLineages grows a tree of clones the way successive ingest
// epochs and concurrent writers do: sibling clones of one corpus,
// grandchildren, the original appending after it was cloned, and a
// chain long enough that the batches' fresh words outnumber the seed
// vocabulary many times over. Siblings add many of the same new words
// in different orders. Every lineage must equal its own full build
// when it is made, and still equal it once every other lineage has
// grown.
func TestCloneLineages(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type lineage struct {
		name string
		c    *Corpus
		docs []Document
		next int // the lineage's fresh-word counter (see lineageDoc)
	}
	var all []*lineage
	grow := func(l *lineage, docs, fresh int) {
		batch := make([]Document, docs)
		for i := range batch {
			batch[i] = lineageDoc(rng, fmt.Sprintf("%s-%d", l.name, len(l.docs)+i), 6, fresh, &l.next)
		}
		l.c.AppendBuild(batch)
		l.docs = append(l.docs, batch...)
		checkLineage(t, l.c, l.docs)
	}
	clone := func(parent *lineage, name string) *lineage {
		l := &lineage{name: name, c: parent.c.Clone(), docs: append([]Document(nil), parent.docs...), next: parent.next}
		all = append(all, l)
		checkLineage(t, l.c, l.docs)
		return l
	}

	// The seed vocabulary is large next to one batch's new words, so
	// several generations of clones add words before they outnumber an
	// eighth of it.
	root := &lineage{name: "root", c: New(textutil.English)}
	for i := 0; i < 8; i++ {
		root.docs = append(root.docs, lineageDoc(rng, fmt.Sprintf("seed-%d", i), 10, 8, &root.next))
	}
	root.c.AddAll(root.docs)
	root.c.Build()
	all = append(all, root)
	checkLineage(t, root.c, root.docs)

	// Siblings of the root, then the original appending after being
	// cloned: its own appends land past both siblings' documents and
	// postings.
	a, b := clone(root, "a"), clone(root, "b")
	grow(a, 1, 2)
	grow(b, 1, 3)
	grow(root, 2, 1)

	// Grandchildren, then more growth on every generation.
	a1, a2 := clone(a, "a1"), clone(a, "a2")
	grow(a1, 1, 2)
	grow(a2, 2, 1)
	grow(a, 1, 2)
	b1 := clone(b, "b1")
	grow(b, 2, 2)
	grow(b1, 1, 3)

	// An epoch chain: every step clones the last and appends a batch,
	// mostly small, every fourth one large, with a side branch off
	// every third step.
	chain := clone(a1, "chain")
	for i := 0; i < 16; i++ {
		fresh := 1 + i%2
		if i%4 == 3 {
			fresh = 12
		}
		grow(chain, 1+i%2, fresh)
		if i%3 == 2 {
			side := clone(chain, fmt.Sprintf("chain-side-%d", i))
			grow(side, 1, 2)
		}
		chain = clone(chain, fmt.Sprintf("chain-%d", i))
	}
	if got, seed := chain.c.Vocabulary(), root.c.Vocabulary(); got < 2*seed {
		t.Fatalf("chain vocabulary %d is not well past the seed's %d", got, seed)
	}

	for _, l := range all {
		checkLineage(t, l.c, l.docs)
	}
}
