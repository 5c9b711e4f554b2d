package corpus

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"bioenrich/internal/sparse"
	"bioenrich/internal/textutil"
)

// TestCloneIndependence proves a clone answers queries identically and
// that growing + rebuilding it leaves the original untouched — the
// property the server's copy-on-write document commits rely on.
func TestCloneIndependence(t *testing.T) {
	c := New(textutil.English)
	c.AddAll([]Document{
		{ID: "1", Text: "Corneal abrasion with epithelium scarring."},
		{ID: "2", Text: "Membrane grafts after corneal injury."},
	})
	c.Build()

	cl := c.Clone()
	if cl.NumDocs() != c.NumDocs() || cl.NumTokens() != c.NumTokens() {
		t.Fatalf("clone shape: docs %d/%d tokens %d/%d",
			cl.NumDocs(), c.NumDocs(), cl.NumTokens(), c.NumTokens())
	}
	if got, want := cl.TF("corneal"), c.TF("corneal"); got != want {
		t.Errorf("clone TF(corneal) = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(cl.Occurrences("corneal"), c.Occurrences("corneal")) {
		t.Error("clone postings differ from original")
	}

	beforeDocs, beforeTF := c.NumDocs(), c.TF("corneal")
	cl.Add(Document{ID: "3", Text: "Another corneal abrasion case."})
	cl.Build()
	if cl.NumDocs() != beforeDocs+1 {
		t.Errorf("clone docs = %d, want %d", cl.NumDocs(), beforeDocs+1)
	}
	if c.NumDocs() != beforeDocs || c.TF("corneal") != beforeTF {
		t.Errorf("original mutated through clone: docs %d tf %d (want %d, %d)",
			c.NumDocs(), c.TF("corneal"), beforeDocs, beforeTF)
	}
	if cl.TF("corneal") != beforeTF+1 {
		t.Errorf("clone TF(corneal) = %d, want %d", cl.TF("corneal"), beforeTF+1)
	}
}

// TestCloneUnbuilt: cloning before Build carries documents and the
// unbuilt flag; the clone still panics on query-before-Build.
func TestCloneUnbuilt(t *testing.T) {
	c := New(textutil.French)
	c.Add(Document{ID: "1", Text: "abrasion cornéenne"})
	cl := c.Clone()
	if cl.NumDocs() != 1 || cl.Lang() != textutil.French {
		t.Fatalf("clone = %v docs, lang %v", cl.NumDocs(), cl.Lang())
	}
	defer func() {
		if recover() == nil {
			t.Error("query on unbuilt clone did not panic")
		}
	}()
	cl.TF("abrasion")
}

// distinctCorpus builds a corpus of docs documents of ten words each,
// every word distinct, plus a shared stopword per document.
func distinctCorpus(docs int) *Corpus {
	c := New(textutil.English)
	for d := 0; d < docs; d++ {
		words := []string{"the"}
		for w := 0; w < 10; w++ {
			words = append(words, fmt.Sprintf("t%dx%d", d, w))
		}
		c.Add(Document{ID: fmt.Sprint(d), Text: strings.Join(words, " ")})
	}
	c.Build()
	return c
}

// TestCloneAllocsFlatInVocabulary: a clone allocates the same number
// of objects whatever the vocabulary, because it shares the posting
// arrays and the token-ID map instead of copying them.
func TestCloneAllocsFlatInVocabulary(t *testing.T) {
	small, large := distinctCorpus(200), distinctCorpus(400)
	if v, w := small.Vocabulary(), large.Vocabulary(); w < 2*v-1 {
		t.Fatalf("fixture: vocabularies %d and %d", v, w)
	}
	a := testing.AllocsPerRun(20, func() { small.Clone() })
	b := testing.AllocsPerRun(20, func() { large.Clone() })
	if a != b {
		t.Errorf("Clone allocates %v objects at vocabulary %d, %v at %d", a, small.Vocabulary(), b, large.Vocabulary())
	}
}

// TestCloneHeadersHaveRoom: a clone's posting-header array has room
// for the new tokens of an ingest, so adding a few does not copy every
// header again.
func TestCloneHeadersHaveRoom(t *testing.T) {
	c := distinctCorpus(50)
	cl := c.Clone()
	before := cap(cl.post)
	cl.AppendBuild([]Document{{ID: "new", Text: "brandnew lexicon entries"}})
	if len(cl.post) <= len(c.post) {
		t.Fatalf("fixture: the batch added no token (%d headers)", len(cl.post))
	}
	if got := cap(cl.post); got != before {
		t.Errorf("header capacity %d after adding %d tokens, want %d", got, len(cl.post)-len(c.post), before)
	}
}

// TestCloneConcurrentReaders: readers querying a corpus see the same
// answers while other goroutines' clones of it grow, take on new
// words and fold, and clones of those clones grow too. Run it with
// -race: a clone that appended into an array the original still reads
// is a race.
func TestCloneConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	next := 0
	orig := New(textutil.English)
	for i := 0; i < 12; i++ {
		orig.Add(lineageDoc(rng, fmt.Sprintf("seed-%d", i), 12, 4, &next))
	}
	orig.Build()
	// One new word, too few to fold: the clones start from a
	// non-empty newIDs.
	orig.AppendBuild([]Document{{ID: "grown", Text: "a corneal lesion, newly seen"}})
	if len(orig.newIDs) == 0 {
		t.Fatal("fixture: the original's newIDs is empty")
	}

	type answers struct {
		occ    [][]Posting
		hits   []SearchHit
		vector sparse.Vector
		tokens [][]string
	}
	// The last three terms are words only the clones will add.
	terms := []string{"corneal", "the", "corneal abrasion", "w3", "graft of",
		fmt.Sprint("w", next+1), fmt.Sprint("w", next+2), fmt.Sprint("w", next+3)}
	ask := func() answers {
		var a answers
		for _, term := range terms {
			a.occ = append(a.occ, orig.Occurrences(term))
		}
		a.hits = orig.Search("corneal lesion graft w5", 5)
		a.vector = orig.ContextVector("corneal", 4)
		for i := 0; i < orig.NumDocs(); i++ {
			a.tokens = append(a.tokens, orig.Tokens(i))
		}
		return a
	}
	want := ask()

	done := make(chan struct{})
	var wg, ready sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if got := ask(); !reflect.DeepEqual(got, want) {
					t.Error("a reader's answers changed while clones grew")
					return
				}
			}
		}()
	}

	ready.Wait()
	for round := 0; round < 10; round++ {
		a, b := orig.Clone(), orig.Clone()
		for step := 0; step < 6; step++ {
			fresh := 1
			if step%3 == 2 {
				fresh = 10 // enough new words to fold
			}
			a.AppendBuild([]Document{lineageDoc(rng, fmt.Sprint("a", step), 8, fresh, &next)})
			b.AppendBuild([]Document{lineageDoc(rng, fmt.Sprint("b", step), 8, fresh, &next)})
			a = a.Clone()
		}
	}
	close(done)
	wg.Wait()
}
