package classify

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/synth"
	"bioenrich/internal/textutil"
)

// fixtureSnapshot builds the corneal-disease fixture the server tests
// use: a three-level ontology over a small corpus where "corneal"
// documents should classify under D2/D3, not D1.
func fixtureSnapshot(t *testing.T) *state.Snapshot {
	t.Helper()
	o := ontology.New("test-mesh")
	mustConcept := func(id ontology.ConceptID, preferred string) {
		t.Helper()
		if _, err := o.AddConcept(id, preferred); err != nil {
			t.Fatal(err)
		}
	}
	mustConcept("D1", "eye diseases")
	mustConcept("D2", "corneal diseases")
	mustConcept("D3", "corneal injury")
	if err := o.AddSynonym("D3", "corneal damage"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetParent("D2", "D1"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetParent("D3", "D2"); err != nil {
		t.Fatal(err)
	}
	c := corpus.New(textutil.English)
	docs := []corpus.Document{
		{ID: "1", Text: "The corneal injury healed after treatment with topical antibiotics."},
		{ID: "2", Text: "Severe corneal damage may require transplantation of donor tissue."},
		{ID: "3", Text: "Corneal diseases include keratitis and corneal dystrophy conditions."},
		{ID: "4", Text: "Eye diseases such as glaucoma affect vision in elderly patients."},
	}
	for _, d := range docs {
		c.Add(d)
	}
	c.Build()
	return state.NewStore(c, o).Load()
}

func TestClassifyRanksMatchingConcept(t *testing.T) {
	snap := fixtureSnapshot(t)
	cl := New(Options{})
	res, err := cl.Classify(context.TODO(), "default", snap,
		"the corneal injury required topical antibiotics and healed", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epoch != snap.Epoch {
		t.Fatalf("Epoch = %d, want %d", res.Epoch, snap.Epoch)
	}
	if res.Lang != "en" {
		t.Fatalf("Lang = %q, want en", res.Lang)
	}
	if res.DocTokens == 0 {
		t.Fatal("DocTokens = 0")
	}
	if len(res.Concepts) == 0 {
		t.Fatal("no concepts assigned")
	}
	if res.Concepts[0].ID != "D3" {
		t.Fatalf("top concept = %s (%q), want D3; full ranking: %+v",
			res.Concepts[0].ID, res.Concepts[0].Preferred, res.Concepts)
	}
	for i := 1; i < len(res.Concepts); i++ {
		prev, cur := res.Concepts[i-1], res.Concepts[i]
		if cur.Score > prev.Score || (cur.Score == prev.Score && cur.ID < prev.ID) {
			t.Fatalf("ranking out of order at %d: %+v", i, res.Concepts)
		}
	}
}

func TestClassifyTopN(t *testing.T) {
	snap := fixtureSnapshot(t)
	cl := New(Options{})
	// Context words from two different concepts' corpus neighborhoods,
	// so more than one concept scores > 0 and topN actually trims.
	res, err := cl.Classify(context.TODO(), "default", snap,
		"severe damage required transplantation of donor tissue after keratitis and dystrophy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Concepts) != 1 {
		t.Fatalf("topN=1 returned %d concepts", len(res.Concepts))
	}
}

func TestClassifyEmptyDocument(t *testing.T) {
	snap := fixtureSnapshot(t)
	cl := New(Options{})
	for _, text := range []string{"", "the of and"} {
		if _, err := cl.Classify(context.TODO(), "default", snap, text, 0); err == nil {
			t.Fatalf("Classify(%q) succeeded, want no-content-words error", text)
		}
	}
}

func TestClassifyConceptsNeverNil(t *testing.T) {
	// An ontology whose concepts never occur in the corpus scores 0
	// everywhere — the result must encode concepts as [], not null.
	o := ontology.New("empty")
	if _, err := o.AddConcept("X1", "xenon toxicity"); err != nil {
		t.Fatal(err)
	}
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "1", Text: "completely unrelated prose about gardening tools."})
	c.Build()
	snap := state.NewStore(c, o).Load()
	cl := New(Options{})
	res, err := cl.Classify(context.TODO(), "default", snap, "gardening tools prose", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Concepts == nil {
		t.Fatal("Concepts is nil")
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"concepts":[]`) {
		t.Fatalf("JSON = %s, want \"concepts\":[]", b)
	}
}

func TestClassifyCacheHitMissAndEpochInvalidation(t *testing.T) {
	reg := obs.New()
	cl := New(Options{Obs: reg})
	snap := fixtureSnapshot(t)

	counter := func(name string) float64 {
		t.Helper()
		return reg.Counter(name).Value()
	}

	if _, err := cl.Classify(context.TODO(), "default", snap, "corneal injury", 0); err != nil {
		t.Fatal(err)
	}
	if got := counter(CacheMissesMetric); got != 1 {
		t.Fatalf("misses after first classify = %v, want 1", got)
	}
	if _, err := cl.Classify(context.TODO(), "default", snap, "corneal damage", 0); err != nil {
		t.Fatal(err)
	}
	if got := counter(CacheHitsMetric); got != 1 {
		t.Fatalf("hits after second classify = %v, want 1", got)
	}

	// A fresh snapshot of the same data builds its own index.
	fresh := state.NewStore(snap.Corpus, snap.Ontology).Load()
	if _, err := cl.Classify(context.TODO(), "default", fresh, "corneal injury", 0); err != nil {
		t.Fatal(err)
	}
	if got := counter(CacheMissesMetric); got != 2 {
		t.Fatalf("misses after a fresh snapshot = %v, want 2", got)
	}

	// Publishing a new epoch starts it without an index.
	next := publishNext(t, snap)
	if _, err := cl.Classify(context.TODO(), "default", next, "corneal injury", 0); err != nil {
		t.Fatal(err)
	}
	if got := counter(CacheMissesMetric); got != 3 {
		t.Fatalf("misses after epoch bump = %v, want 3", got)
	}
}

// publishNext publishes one more document over snap and returns the
// next epoch's snapshot.
func publishNext(t *testing.T, snap *state.Snapshot) *state.Snapshot {
	t.Helper()
	store := state.NewStoreAt(snap.Corpus, snap.Ontology, snap.Epoch)
	if _, err := store.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
		next := cur.Corpus.Clone()
		next.Add(corpus.Document{ID: "5", Text: "corneal scarring after injury."})
		next.Build()
		return next, cur.Ontology, nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	next := store.Load()
	if next.Epoch == snap.Epoch {
		t.Fatal("epoch did not advance")
	}
	return next
}

// TestClassifyEachSnapshotKeepsItsIndex: a request still on an older
// snapshot gets that epoch's scores from the index kept in it, and the
// current snapshot keeps its own, so alternating between the two
// builds each once.
func TestClassifyEachSnapshotKeepsItsIndex(t *testing.T) {
	reg := obs.New()
	cl := New(Options{Obs: reg})
	old := fixtureSnapshot(t)
	cur := publishNext(t, old)
	for _, snap := range []*state.Snapshot{cur, old, cur, old} {
		res, err := cl.Classify(context.TODO(), "default", snap, "corneal injury", 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Epoch != snap.Epoch {
			t.Fatalf("classified at epoch %d, want %d", res.Epoch, snap.Epoch)
		}
	}
	misses, hits := reg.Counter(CacheMissesMetric).Value(), reg.Counter(CacheHitsMetric).Value()
	if misses != 2 || hits != 2 {
		t.Fatalf("current, older, current, older: %v misses and %v hits, want 2 and 2", misses, hits)
	}
}

func TestClassifyCancelled(t *testing.T) {
	snap := fixtureSnapshot(t)
	cl := New(Options{})
	ctx, cancel := context.WithCancel(context.TODO())
	cancel()
	if _, err := cl.Classify(ctx, "default", snap, "corneal injury", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClassifyConcurrent classifies from 16 goroutines over 3 keys,
// half of them on an older snapshot. Each snapshot's index is built
// once, whatever the key and whichever goroutine gets there first, so
// the two snapshots cost exactly two builds, and every other call hits.
func TestClassifyConcurrent(t *testing.T) {
	old := fixtureSnapshot(t)
	cur := publishNext(t, old)
	reg := obs.New()
	cl := New(Options{Obs: reg})
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			snap := cur
			if i%2 == 1 {
				snap = old
			}
			_, err := cl.Classify(context.TODO(), fmt.Sprintf("k%d", i%3), snap, "corneal injury and damage", 0)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	misses, hits := reg.Counter(CacheMissesMetric).Value(), reg.Counter(CacheHitsMetric).Value()
	if misses != 2 || hits != 14 {
		t.Fatalf("16 classifications on 2 snapshots: %v misses and %v hits, want 2 and 14", misses, hits)
	}
}

// TestClassifyWarmAllocsFlatInConcepts pins the scoring pass's
// allocations: a warm Classify allocates per document and per call,
// never per concept, so the same text costs the same number of
// allocations against a 29-concept and a 151-concept mesh.
func TestClassifyWarmAllocsFlatInConcepts(t *testing.T) {
	const text = "Severe corneal injury and damage to the epithelium healed after treatment."
	warmAllocs := func(branches, depth, concepts int) float64 {
		t.Helper()
		mopts := synth.DefaultMeshOptions()
		mopts.Seed = 42
		mopts.Branches, mopts.Depth = branches, depth
		mesh := synth.GenerateMesh(mopts)
		if n := len(mesh.Ontology.ConceptIDs()); n != concepts {
			t.Fatalf("mesh %d,%d has %d concepts, want %d", branches, depth, n, concepts)
		}
		snap := state.NewStore(synth.GenerateMeshCorpus(mesh, synth.DefaultCorpusOptions()), mesh.Ontology).Load()
		cl := New(Options{})
		run := func() {
			if _, err := cl.Classify(context.TODO(), "default", snap, text, 5); err != nil {
				t.Fatal(err)
			}
		}
		run() // build the index; the runs below are warm
		return testing.AllocsPerRun(20, run)
	}
	small, large := warmAllocs(2, 2, 29), warmAllocs(3, 3, 151)
	if small != large {
		t.Fatalf("warm classify allocations: %v on 29 concepts, %v on 151; want equal", small, large)
	}
}
