package registry

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"bioenrich/internal/batch"
	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/storage"
	"bioenrich/internal/textutil"
)

// testSeed seeds an ontology called name with one concept and a corpus
// of one document whose ID is docID.
func testSeed(name, docID string) Seed {
	return func() (*corpus.Corpus, *ontology.Ontology, error) {
		o := ontology.New(name)
		if _, err := o.AddConcept("D1", "eye diseases"); err != nil {
			return nil, nil, err
		}
		c := corpus.New(textutil.English)
		c.Add(corpus.Document{ID: docID, Text: "eye diseases affect the cornea."})
		c.Build()
		return c, o, nil
	}
}

// refusedSeed fails the test if Open ever calls it: a registration
// refused for its name must not build, let alone write, anything.
func refusedSeed(t *testing.T) Seed {
	return func() (*corpus.Corpus, *ontology.Ontology, error) {
		t.Error("seed called for a refused registration")
		return nil, nil, errors.New("refused")
	}
}

// newRegistry builds an in-memory registry whose default entry
// "default" serves a fresh mesh seed.
func newRegistry(t *testing.T) *Registry {
	t.Helper()
	r, err := New(context.Background(), "default", testSeed("mesh", "1"), storage.DiskOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newDurable builds a registry over dataDir. A nil seed is for a
// restart, where the default entry must recover.
func newDurable(t *testing.T, dataDir string, seed Seed) *Registry {
	t.Helper()
	r, err := New(context.Background(), "default", seed, storage.DiskOptions{Dir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func ingest(t *testing.T, e *Entry, id string) {
	t.Helper()
	if _, err := e.Ingest(context.Background(), []corpus.Document{{ID: id, Text: "retinal detachment case report"}}); err != nil {
		t.Fatal(err)
	}
}

// readDir returns every file directly in dir with its contents.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(des))
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = b
	}
	return files
}

// docIDs lists the IDs of the entry's documents in corpus order.
func docIDs(e *Entry) []string {
	c := e.Snapshot().Corpus
	ids := make([]string, c.NumDocs())
	for i := range ids {
		ids[i] = c.Doc(i).ID
	}
	return ids
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
	ctx := context.Background()
	if _, err := r.Open(ctx, "umls-fr", testSeed("umls-fr", "1")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(ctx, "agrovoc", testSeed("agrovoc", "1")); err != nil {
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
	ctx := context.Background()
	if _, err := r.Open(ctx, "default", refusedSeed(t)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Open err = %v, want ErrExists", err)
	}
	for _, bad := range []string{"", "has space", "slash/y", "ünicode", string(make([]byte, 65))} {
		if _, err := r.Open(ctx, bad, refusedSeed(t)); err == nil {
			t.Fatalf("Open(%q) unexpectedly succeeded", bad)
		}
	}
	if _, err := r.Open(ctx, "valid", nil); err == nil {
		t.Fatal("Open with nil seed on a cold start unexpectedly succeeded")
	}
	if _, ok := r.Get("valid"); ok {
		t.Fatal("failed Open registered its entry")
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"default", "umls-fr", "a", "MeSH_2026.v1"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	for _, bad := range []string{"", "a b", "a/b", "é", string(make([]byte, 65)), ".", ".."} {
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
			if _, err := r.Open(context.Background(), fmt.Sprintf("onto-%d", i), testSeed("x", "1")); err != nil {
				t.Error(err)
			}
		}(i)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if e, ok := r.Get("default"); !ok || e.Snapshot() == nil {
					t.Error("default entry unreadable during concurrent Open")
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
	e2, err := r.Open(context.Background(), "icd", testSeed("icd", "1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Ingest(context.Background(), []corpus.Document{{ID: "x", Text: "glaucoma"}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Epoch; got != 2 {
		t.Fatalf("default entry epoch moved to %d by another entry's ingest", got)
	}

	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), nil); err == nil {
		t.Fatal("ingest after Close succeeded")
	}
	if _, err := e2.Ingest(context.Background(), []corpus.Document{{ID: "y", Text: "late"}}); !errors.Is(err, batch.ErrClosed) {
		t.Fatalf("ingest after Close = %v, want batch.ErrClosed", err)
	}
}

// TestDuplicateOpenLeavesFilesAlone: with a data directory, a refused
// Open of a registered name leaves that entry's files byte-identical,
// as do Opens of "." and "..", whose directories would be ontologies/
// and the default entry's. Every acknowledged ingest survives a crash:
// a second registry over the same directory, the first never closed,
// recovers the entry's epoch and documents.
func TestDuplicateOpenLeavesFilesAlone(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	r := newDurable(t, dataDir, testSeed("mesh", "1"))
	foo, err := r.Open(ctx, "foo", testSeed("foo", "foo-seed"))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, foo, "foo-1")
	ingest(t, foo, "foo-2")

	fooDir := filepath.Join(dataDir, "ontologies", "foo")
	before := readDir(t, fooDir)
	if _, err := r.Open(ctx, "foo", refusedSeed(t)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate Open err = %v, want ErrExists", err)
	}
	if after := readDir(t, fooDir); !reflect.DeepEqual(after, before) {
		t.Fatal("refused Open changed the existing entry's files")
	}
	rootBefore := readDir(t, dataDir)
	for _, name := range []string{".", ".."} {
		if _, err := r.Open(ctx, name, refusedSeed(t)); err == nil {
			t.Fatalf("Open(%q) unexpectedly succeeded", name)
		}
	}
	if after := readDir(t, dataDir); !reflect.DeepEqual(after, rootBefore) {
		t.Fatal("Open of a dot name changed the default entry's files")
	}
	ingest(t, foo, "foo-3")

	// The crash: r is never closed, so nothing checkpoints.
	r2 := newDurable(t, dataDir, nil)
	t.Cleanup(func() { r2.Close() })
	if err := r2.OpenDiscovered(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := r2.Get("foo")
	if !ok {
		t.Fatal("foo not recovered")
	}
	if epoch := got.Snapshot().Epoch; epoch != 4 {
		t.Fatalf("recovered foo at epoch %d, want 4", epoch)
	}
	if ids, want := docIDs(got), []string{"foo-seed", "foo-1", "foo-2", "foo-3"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered foo documents %v, want %v", ids, want)
	}
}

// TestConcurrentOpenOneName: of N concurrent Opens of one new name
// exactly one wins, the rest get ErrExists without seeding, and the
// directory holds the winner's seed.
func TestConcurrentOpenOneName(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	r := newDurable(t, dataDir, testSeed("mesh", "1"))

	const n = 8
	var (
		wg     sync.WaitGroup
		seeded atomic.Int32
		errs   [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := testSeed("race", fmt.Sprintf("seed-%d", i))
			_, errs[i] = r.Open(ctx, "race", func() (*corpus.Corpus, *ontology.Ontology, error) {
				seeded.Add(1)
				return seed()
			})
		}(i)
	}
	wg.Wait()
	winner := -1
	for i, err := range errs {
		switch {
		case err == nil && winner < 0:
			winner = i
		case err == nil:
			t.Fatalf("Opens %d and %d both succeeded", winner, i)
		case !errors.Is(err, ErrExists):
			t.Fatalf("Open %d: %v, want ErrExists", i, err)
		}
	}
	if winner < 0 {
		t.Fatal("no Open succeeded")
	}
	if s := seeded.Load(); s != 1 {
		t.Fatalf("%d seeds ran, want 1", s)
	}

	r2 := newDurable(t, dataDir, nil)
	t.Cleanup(func() { r2.Close() })
	if err := r2.OpenDiscovered(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := r2.Get("race")
	if !ok {
		t.Fatal("race not recovered")
	}
	if ids, want := docIDs(got), []string{fmt.Sprintf("seed-%d", winner)}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("recovered documents %v, want the winner's %v", ids, want)
	}
}

// TestCloseCheckpoints: Close flushes, checkpoints and closes every
// durable entry, so the next boot recovers each at its final epoch
// with no WAL record to replay.
func TestCloseCheckpoints(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	r := newDurable(t, dataDir, testSeed("mesh", "1"))
	foo, err := r.Open(ctx, "foo", testSeed("foo", "foo-seed"))
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, r.Default(), "d-1")
	ingest(t, foo, "foo-1")
	ingest(t, foo, "foo-2")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := foo.Ingest(ctx, []corpus.Document{{ID: "late", Text: "late"}}); !errors.Is(err, batch.ErrClosed) {
		t.Fatalf("ingest after Close = %v, want batch.ErrClosed", err)
	}

	metrics := obs.New()
	r2, err := New(ctx, "default", nil, storage.DiskOptions{Dir: dataDir, Obs: metrics})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r2.Close() })
	if err := r2.OpenDiscovered(ctx); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{"default": 2, "foo": 3} {
		e, ok := r2.Get(name)
		if !ok {
			t.Fatalf("%s not recovered", name)
		}
		if got := e.Snapshot().Epoch; got != want {
			t.Errorf("%s recovered at epoch %d, want %d", name, got, want)
		}
	}
	if n := metrics.Counter(storage.ReplayedRecordsMetric).Value(); n != 0 {
		t.Fatalf("replayed %v WAL records after a clean Close, want 0", n)
	}
}

// TestOpenDiscoveredSkipsUnseededEntry: a create that crashed before
// its first checkpoint leaves a directory holding only the segment's
// temp file. It was never acknowledged, so the next boot skips it
// instead of refusing to start, and the name can be created again.
func TestOpenDiscoveredSkipsUnseededEntry(t *testing.T) {
	ctx := context.Background()
	dataDir := t.TempDir()
	half := filepath.Join(dataDir, "ontologies", "half")
	if err := os.MkdirAll(half, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(half, ".seg-00000000000000000001.seg.tmp-1"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := newDurable(t, dataDir, testSeed("mesh", "1"))
	t.Cleanup(func() { r.Close() })
	if err := r.OpenDiscovered(ctx); err != nil {
		t.Fatalf("OpenDiscovered: %v", err)
	}
	if _, ok := r.Get("half"); ok {
		t.Fatal("an entry with no durable state was registered")
	}
	e, err := r.Open(ctx, "half", testSeed("half", "half-seed"))
	if err != nil {
		t.Fatal(err)
	}
	if ids := docIDs(e); !reflect.DeepEqual(ids, []string{"half-seed"}) {
		t.Fatalf("re-created half holds %v", ids)
	}
}

func TestDiscoverEntries(t *testing.T) {
	// No ontologies directory at all: nothing to discover.
	if got, err := discoverEntries(t.TempDir()); err != nil || got != nil {
		t.Fatalf("empty data dir: got %v, %v", got, err)
	}

	dataDir := t.TempDir()
	mk := func(name string, populated bool) {
		dir := filepath.Join(dataDir, "ontologies", name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if populated {
			if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte("{}"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("zeta", true)
	mk("agro", true)
	mk("empty-entry", false) // never checkpointed: skipped
	mk("bad name", true)     // invalid registry name: skipped
	// Stray file alongside the entry directories: skipped.
	if err := os.WriteFile(filepath.Join(dataDir, "ontologies", "stray.txt"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := discoverEntries(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"agro", "zeta"} // sorted
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("discovered = %v, want %v", got, want)
	}
}
