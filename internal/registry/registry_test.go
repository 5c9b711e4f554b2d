package registry

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"bioenrich/internal/batch"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

func testStore(t *testing.T, name string) *state.Store {
	t.Helper()
	o := ontology.New(name)
	if _, err := o.AddConcept("D1", "eye diseases"); err != nil {
		t.Fatal(err)
	}
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "1", Text: "eye diseases affect the cornea."})
	c.Build()
	return state.NewStore(c, o)
}

// newRegistry builds a registry whose default entry "default" serves
// a fresh mesh store.
func newRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := New("default", testStore(t, "mesh"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDefaultEntry(t *testing.T) {
	r := newRegistry(t)
	if r.DefaultName() != "default" {
		t.Fatalf("DefaultName = %q", r.DefaultName())
	}
	if e := r.Default(); e == nil || e.Name != "default" {
		t.Fatalf("Default() = %+v", e)
	}
	// The empty name resolves to the default entry.
	if e, ok := r.Get(""); !ok || e.Name != "default" {
		t.Fatalf("Get(\"\") = %+v, %v", e, ok)
	}
	if e := r.Default(); e.Snapshot().Epoch != 1 {
		t.Fatalf("default snapshot epoch = %d, want 1", e.Snapshot().Epoch)
	}
}

func TestAddGetNames(t *testing.T) {
	r := newRegistry(t)
	if _, err := r.Add("umls-fr", testStore(t, "umls-fr")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Add("agrovoc", testStore(t, "agrovoc")); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range r.Entries() {
		names = append(names, e.Name)
	}
	if want := []string{"agrovoc", "default", "umls-fr"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("Entries() names = %v, want %v", names, want)
	}
	if r.Len() != 3 {
		t.Fatalf("Len() = %d", r.Len())
	}
	if _, ok := r.Get("umls-fr"); !ok {
		t.Fatal("Get(umls-fr) missing")
	}
	if _, ok := r.Get("nope"); ok {
		t.Fatal("Get(nope) unexpectedly present")
	}
	if _, err := r.Resolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(nope) err = %v, want ErrNotFound", err)
	}
}

func TestAddDuplicateAndInvalid(t *testing.T) {
	r := newRegistry(t)
	if _, err := r.Add("default", testStore(t, "other")); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Add err = %v, want ErrExists", err)
	}
	for _, bad := range []string{"", "has space", "slash/y", "ünicode", string(make([]byte, 65))} {
		if _, err := r.Add(bad, testStore(t, "x")); err == nil {
			t.Fatalf("Add(%q) unexpectedly succeeded", bad)
		}
	}
	if _, err := r.Add("valid", nil); err == nil {
		t.Fatal("Add with nil store unexpectedly succeeded")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "umls-fr", "a", "MeSH_2026.v1"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "é", string(make([]byte, 65))} {
		if ValidName(bad) {
			t.Errorf("ValidName(%q) = true", bad)
		}
	}
}

// TestConcurrentAddAndGet exercises the copy-on-write swap under the
// race detector: concurrent registrations and lock-free lookups must
// never observe a torn map.
func TestConcurrentAddAndGet(t *testing.T) {
	r := newRegistry(t)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := r.Add(fmt.Sprintf("onto-%d", i), testStore(t, "x")); err != nil {
				t.Error(err)
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if e, ok := r.Get("default"); !ok || e.Snapshot() == nil {
					t.Error("default entry unreadable during concurrent Add")
					return
				}
				r.Entries()
			}
		}()
	}
	wg.Wait()
	if r.Len() != 9 {
		t.Fatalf("Len() = %d, want 9", r.Len())
	}
}

// TestEntryIngestAndClose: every entry carries its own group-commit
// batcher — Ingest lands documents, Close flushes and then rejects.
func TestEntryIngestAndClose(t *testing.T) {
	r := newRegistry(t)
	e := r.Default()

	snap, err := e.Ingest(context.Background(), []corpus.Document{
		{ID: "n1", Text: "retinal detachment case report"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 || snap.Corpus.NumDocs() != 2 {
		t.Fatalf("after ingest: epoch %d docs %d, want 2/2", snap.Epoch, snap.Corpus.NumDocs())
	}

	// Batchers are per entry: ingesting into a second entry never
	// advances the first entry's store.
	e2, err := r.Add("icd", testStore(t, "icd"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Ingest(context.Background(), []corpus.Document{{ID: "x", Text: "glaucoma"}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Epoch; got != 2 {
		t.Fatalf("default entry epoch moved to %d by another entry's ingest", got)
	}

	r.Close()
	if _, err := e.Ingest(context.Background(), nil); err == nil {
		t.Fatal("ingest after Close succeeded")
	}
	if _, err := e2.Ingest(context.Background(), []corpus.Document{{ID: "y", Text: "late"}}); !errors.Is(err, batch.ErrClosed) {
		t.Fatalf("ingest after Close = %v, want batch.ErrClosed", err)
	}
}
