package corpus

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"bioenrich/internal/textutil"
)

// equalIndexed fails the test unless a and b answer every query
// alike: documents, token count, vocabulary size, every token stream
// and the postings of every distinct token. This is the invariant
// AppendBuild promises relative to a from-scratch Build. It compares
// through the public queries, not the index's fields, so it holds
// whatever layout the index has.
func equalIndexed(t testing.TB, a, b *Corpus) {
	t.Helper()
	if a.built != b.built {
		t.Fatalf("built flags: %v vs %v", a.built, b.built)
	}
	if !reflect.DeepEqual(a.Documents(), b.Documents()) {
		t.Fatalf("docs differ: %d vs %d", a.NumDocs(), b.NumDocs())
	}
	if a.NumTokens() != b.NumTokens() {
		t.Fatalf("total tokens: %d vs %d", a.NumTokens(), b.NumTokens())
	}
	if a.Vocabulary() != b.Vocabulary() {
		t.Fatalf("vocabulary: %d vs %d", a.Vocabulary(), b.Vocabulary())
	}
	seen := make(map[string]bool)
	for i := 0; i < a.NumDocs(); i++ {
		if !slices.Equal(a.Tokens(i), b.Tokens(i)) {
			t.Fatalf("token streams of document %d differ", i)
		}
		for _, tok := range a.Tokens(i) {
			if seen[tok] {
				continue
			}
			seen[tok] = true
			if !slices.Equal(a.Occurrences(tok), b.Occurrences(tok)) {
				t.Fatalf("postings of %q differ", tok)
			}
		}
	}
}

// TestAppendBuildMatchesFullBuild: growing a built corpus batch by
// batch through AppendBuild lands on exactly the state a single
// from-scratch Build over all documents produces.
func TestAppendBuildMatchesFullBuild(t *testing.T) {
	seed := []Document{
		{ID: "1", Title: "Corneal abrasion", Text: "Corneal abrasion with epithelium scarring."},
		{ID: "2", Text: "Membrane grafts after corneal injury."},
	}
	batches := [][]Document{
		{{ID: "3", Text: "Retinal detachment with vitreous hemorrhage."}},
		{
			{ID: "4", Title: "Glaucoma", Text: "Intraocular pressure and optic nerve damage."},
			{ID: "5", Text: "Corneal abrasion recurrence; epithelium heals."},
		},
		{{ID: "6", Text: ""}}, // title-only and short docs still index
	}

	inc := New(textutil.English)
	inc.AddAll(seed)
	inc.Build()
	all := append([]Document(nil), seed...)
	for _, b := range batches {
		inc.AppendBuild(b)
		all = append(all, b...)

		full := New(textutil.English)
		full.AddAll(all)
		full.Build()
		equalIndexed(t, inc, full)
	}

	// The incremental corpus answers queries like the full one.
	if inc.TF("corneal") != 4 || inc.DF("corneal") != 3 {
		t.Errorf("TF/DF(corneal) = %d/%d, want 4/3", inc.TF("corneal"), inc.DF("corneal"))
	}
	if got := inc.Occurrences("corneal abrasion"); len(got) != 3 {
		t.Errorf("multi-word occurrences = %d, want 3", len(got))
	}
}

// TestAppendBuildRandomized: the equivalence holds across randomized
// batch shapes (sizes, shared vocabulary, empty-ish documents) —
// seeded, so failures reproduce.
func TestAppendBuildRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vocab := []string{"cornea", "retina", "lesion", "graft", "membrane", "detachment", "epithelium", "pressure"}
	randDoc := func(id int) Document {
		n := 1 + rng.Intn(8)
		text := ""
		for i := 0; i < n; i++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		return Document{ID: fmt.Sprint(id), Text: text}
	}
	for round := 0; round < 5; round++ {
		inc := New(textutil.English)
		var all []Document
		id := 0
		for i := 0; i < 3+rng.Intn(3); i++ {
			batch := make([]Document, 1+rng.Intn(5))
			for j := range batch {
				batch[j] = randDoc(id)
				id++
			}
			all = append(all, batch...)
			if !inc.built {
				inc.AddAll(batch)
				inc.Build()
			} else {
				inc.AppendBuild(batch)
			}
			full := New(textutil.English)
			full.AddAll(all)
			full.Build()
			equalIndexed(t, inc, full)
		}
	}
}

// TestAppendBuildUnbuilt: on a corpus that was never built,
// AppendBuild degrades to AddAll + Build.
func TestAppendBuildUnbuilt(t *testing.T) {
	c := New(textutil.English)
	c.Add(Document{ID: "1", Text: "corneal abrasion"})
	c.AppendBuild([]Document{{ID: "2", Text: "retinal detachment"}})
	if c.NumDocs() != 2 || !c.built {
		t.Fatalf("docs = %d built = %v, want 2 built", c.NumDocs(), c.built)
	}
	if c.TF("corneal") != 1 || c.TF("retinal") != 1 {
		t.Errorf("TF = %d/%d, want 1/1", c.TF("corneal"), c.TF("retinal"))
	}
}

// TestCloneAppendBuildIndependence: the batched-ingest pattern —
// Clone then AppendBuild — never disturbs the original corpus, which
// concurrent readers are still serving.
func TestCloneAppendBuildIndependence(t *testing.T) {
	c := New(textutil.English)
	c.AddAll([]Document{
		{ID: "1", Text: "Corneal abrasion with epithelium scarring."},
		{ID: "2", Text: "Membrane grafts after corneal injury."},
	})
	c.Build()
	docs, tf := c.NumDocs(), c.TF("corneal")

	cl := c.Clone()
	cl.AppendBuild([]Document{{ID: "3", Text: "Another corneal abrasion case."}})
	if cl.NumDocs() != docs+1 || cl.TF("corneal") != tf+1 {
		t.Errorf("clone after AppendBuild: docs %d tf %d, want %d/%d",
			cl.NumDocs(), cl.TF("corneal"), docs+1, tf+1)
	}
	if c.NumDocs() != docs || c.TF("corneal") != tf {
		t.Errorf("original mutated: docs %d tf %d, want %d/%d untouched",
			c.NumDocs(), c.TF("corneal"), docs, tf)
	}

	// Sibling clones of one snapshot share its token streams, and
	// cl's stream list has spare capacity after its AppendBuild: each
	// sibling must append to a list of its own.
	a, b := cl.Clone(), cl.Clone()
	a.AppendBuild([]Document{{ID: "4", Text: "Retinal detachment."}})
	b.AppendBuild([]Document{{ID: "4", Text: "Lens opacity."}})
	if got := a.Tokens(docs + 1)[0]; got != "retinal" {
		t.Errorf("sibling a's new document starts %q, want retinal", got)
	}
	if got := b.Tokens(docs + 1)[0]; got != "lens" {
		t.Errorf("sibling b's new document starts %q, want lens", got)
	}
	if cl.NumDocs() != docs+1 || cl.TF("retinal") != 0 {
		t.Errorf("parent clone mutated by its siblings: docs %d, tf(retinal) %d", cl.NumDocs(), cl.TF("retinal"))
	}
}

// TestAppendBuildAssignsFullBuildIDs: new tokens get IDs in order of
// first occurrence, so a corpus grown batch by batch through clones
// and AppendBuild, folds included, gives every token the ID a full
// build gives it, and no AppendBuild writes the ids map it shares.
func TestAppendBuildAssignsFullBuildIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	next := 0
	all := []Document{lineageDoc(rng, "seed", 12, 0, &next)}
	inc := New(textutil.English)
	inc.AddAll(all)
	inc.Build()
	folds := 0
	for i := 0; i < 30; i++ {
		batch := []Document{lineageDoc(rng, fmt.Sprint(i), 8, 2, &next)}
		all = append(all, batch...)
		parent := inc
		shared := len(parent.ids)
		inc = parent.Clone()
		inc.AppendBuild(batch)
		if len(parent.ids) != shared {
			t.Fatalf("batch %d: the shared ids map grew from %d to %d", i, shared, len(parent.ids))
		}
		if len(inc.newIDs) == 0 {
			folds++
		}
	}
	if folds < 2 {
		t.Fatalf("%d folds in 30 batches, want at least 2", folds)
	}
	full := New(textutil.English)
	full.AddAll(all)
	full.Build()
	if len(full.newIDs) != 0 || len(inc.ids)+len(inc.newIDs) != len(full.ids) {
		t.Fatalf("ids %d + new %d, full build %d + %d", len(inc.ids), len(inc.newIDs), len(full.ids), len(full.newIDs))
	}
	for tok, want := range full.ids {
		if got, ok := inc.id(tok); !ok || got != want {
			t.Errorf("ID of %q = %d (%v), full build %d", tok, got, ok, want)
		}
	}
}
