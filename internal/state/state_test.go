package state

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/textutil"
)

func fixture(t *testing.T) (*corpus.Corpus, *ontology.Ontology) {
	t.Helper()
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "1", Text: "Corneal abrasion with scarring."})
	c.Build()
	o := ontology.New("mesh")
	if _, err := o.AddConcept("D1", "eye diseases"); err != nil {
		t.Fatal(err)
	}
	return c, o
}

func TestLoadCommitEpoch(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	snap := st.Load()
	if snap.Epoch != 1 || snap.Corpus != c || snap.Ontology != o {
		t.Fatalf("initial snapshot = %+v", snap)
	}

	o2 := o.Clone()
	if err := o2.AddSynonym("D1", "ocular diseases"); err != nil {
		t.Fatal(err)
	}
	next, err := st.Commit(snap, snap.Corpus, o2)
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 || st.Load() != next {
		t.Errorf("commit: epoch %d, current %p vs %p", next.Epoch, st.Load(), next)
	}
	// The superseded snapshot is still coherent for readers holding it.
	if snap.Ontology.NumTerms() != 1 {
		t.Errorf("old snapshot mutated: %d terms", snap.Ontology.NumTerms())
	}
}

// TestPublishedSnapshotStartsWithEmptySlot: a publish, by Commit or
// by UpdateDelta, starts the new snapshot with an empty Slot even over
// the same corpus and ontology, and the snapshot it replaced keeps its
// value for the readers still holding it.
func TestPublishedSnapshotStartsWithEmptySlot(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	keep := func(s *Snapshot, v string) any {
		t.Helper()
		got, err := s.Derived(context.Background(), func() (any, error) { return v, nil })
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, publish := range []func(base *Snapshot) (*Snapshot, error){
		func(base *Snapshot) (*Snapshot, error) { return st.Commit(base, base.Corpus, base.Ontology) },
		func(*Snapshot) (*Snapshot, error) {
			return st.UpdateDelta(func(cur *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
				return cur.Corpus, cur.Ontology, nil, nil
			})
		},
	} {
		old := st.Load()
		kept := keep(old, "old")
		next, err := publish(old)
		if err != nil {
			t.Fatal(err)
		}
		if got := keep(next, "new"); got != "new" {
			t.Errorf("epoch %d started with %v in its slot", next.Epoch, got)
		}
		if got := keep(old, "other"); got != kept {
			t.Errorf("epoch %d's slot holds %v, want %v", old.Epoch, got, kept)
		}
	}
}

// TestCommitStale: a commit built on a superseded snapshot fails with
// ErrStale and publishes nothing — the 409 Conflict path.
func TestCommitStale(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	base := st.Load()

	// An interleaved commit moves the epoch.
	if _, err := st.Commit(base, base.Corpus, base.Ontology.Clone()); err != nil {
		t.Fatal(err)
	}

	stale := base.Ontology.Clone()
	if err := stale.AddSynonym("D1", "late synonym"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Commit(base, base.Corpus, stale); !errors.Is(err, ErrStale) {
		t.Fatalf("stale commit error = %v, want ErrStale", err)
	}
	if st.Load().Ontology.HasTerm("late synonym") {
		t.Error("stale commit mutated the published snapshot")
	}
	if st.Load().Epoch != 2 {
		t.Errorf("epoch = %d, want 2", st.Load().Epoch)
	}
}

// TestUpdateSerializes: concurrent UpdateDelta calls all land (no
// conflicts) and every epoch increments exactly once — document
// ingestion semantics.
func TestUpdateSerializes(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := st.UpdateDelta(func(snap *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
				cc := snap.Corpus.Clone()
				cc.Add(corpus.Document{ID: fmt.Sprintf("u%d", i), Text: "more corneal text"})
				cc.Build()
				return cc, snap.Ontology, nil, nil
			})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	snap := st.Load()
	if snap.Epoch != 1+n {
		t.Errorf("epoch = %d, want %d", snap.Epoch, 1+n)
	}
	if snap.Corpus.NumDocs() != 1+n {
		t.Errorf("docs = %d, want %d", snap.Corpus.NumDocs(), 1+n)
	}
}

// TestUpdateAbort: an erroring UpdateDelta publishes nothing.
func TestUpdateAbort(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	sentinel := errors.New("boom")
	if _, err := st.UpdateDelta(func(*Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
		return nil, nil, nil, sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if st.Load().Epoch != 1 {
		t.Errorf("aborted update advanced the epoch to %d", st.Load().Epoch)
	}
}

// TestLoadNeverBlocks: readers keep loading while a slow UpdateDelta
// holds the writer mutex.
func TestLoadNeverBlocks(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	inUpdate := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = st.UpdateDelta(func(snap *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
			close(inUpdate)
			<-release
			return snap.Corpus, snap.Ontology, nil, nil
		})
	}()
	<-inUpdate
	// The writer mutex is held; Load must still return immediately.
	for i := 0; i < 100; i++ {
		if snap := st.Load(); snap.Epoch != 1 {
			t.Fatalf("epoch = %d mid-update", snap.Epoch)
		}
	}
	close(release)
	<-done
	if st.Load().Epoch != 2 {
		t.Errorf("epoch after update = %d", st.Load().Epoch)
	}
}

// recordingDurable captures what the store hands its durability hook
// and can be told to reject publishes.
type recordingDurable struct {
	calls []struct {
		epoch uint64
		docs  int // -1 for a nil delta
	}
	fail error
}

func (r *recordingDurable) BeforePublish(next *Snapshot, delta *Delta) error {
	n := -1
	if delta != nil {
		n = len(delta.Docs)
	}
	r.calls = append(r.calls, struct {
		epoch uint64
		docs  int
	}{next.Epoch, n})
	return r.fail
}

// TestDurableHookSeesEveryPublish: Commit reports a nil delta (full
// snapshot durability); UpdateDelta passes the mutation's delta
// through verbatim, nil included.
func TestDurableHookSeesEveryPublish(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	rec := &recordingDurable{}
	st.SetDurable(rec)

	if _, err := st.Commit(st.Load(), c, o.Clone()); err != nil {
		t.Fatal(err)
	}
	doc := corpus.Document{ID: "2", Text: "Retinal detachment."}
	if _, err := st.UpdateDelta(func(cur *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
		cc := cur.Corpus.Clone()
		cc.Add(doc)
		cc.Build()
		return cc, cur.Ontology, &Delta{Docs: []corpus.Document{doc}}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.UpdateDelta(func(cur *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
		return cur.Corpus, cur.Ontology.Clone(), nil, nil
	}); err != nil {
		t.Fatal(err)
	}

	want := []struct {
		epoch uint64
		docs  int
	}{{2, -1}, {3, 1}, {4, -1}}
	if len(rec.calls) != len(want) {
		t.Fatalf("hook saw %d publishes, want %d", len(rec.calls), len(want))
	}
	for i, w := range want {
		if rec.calls[i] != w {
			t.Errorf("publish %d: hook saw %+v, want %+v", i, rec.calls[i], w)
		}
	}
}

// TestDurableHookFailureAbortsPublish: a rejected publish changes
// nothing — readers can never observe an epoch that was not made
// durable.
func TestDurableHookFailureAbortsPublish(t *testing.T) {
	c, o := fixture(t)
	st := NewStore(c, o)
	rec := &recordingDurable{fail: errors.New("disk on fire")}
	st.SetDurable(rec)
	before := st.Load()

	if _, err := st.Commit(before, c, o.Clone()); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("commit error = %v, want the hook's failure wrapped", err)
	}
	if _, err := st.UpdateDelta(func(cur *Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error) {
		return cur.Corpus, cur.Ontology.Clone(), nil, nil
	}); err == nil {
		t.Fatal("update published despite hook failure")
	}
	if got := st.Load(); got != before || got.Epoch != 1 {
		t.Fatalf("store advanced to epoch %d after rejected publishes", got.Epoch)
	}

	// Once the hook recovers, the same mutation lands at the epoch the
	// failed attempts never consumed.
	rec.fail = nil
	next, err := st.Commit(st.Load(), c, o.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if next.Epoch != 2 {
		t.Errorf("post-recovery epoch = %d, want 2 (failures must not burn epochs)", next.Epoch)
	}
}

// TestNewStoreAtEpoch: warm restarts resume at the recovered epoch;
// epoch 0 normalizes to a fresh store.
func TestNewStoreAtEpoch(t *testing.T) {
	c, o := fixture(t)
	if got := NewStoreAt(c, o, 42).Load().Epoch; got != 42 {
		t.Errorf("NewStoreAt(42) epoch = %d", got)
	}
	if got := NewStoreAt(c, o, 0).Load().Epoch; got != 1 {
		t.Errorf("NewStoreAt(0) epoch = %d, want 1", got)
	}
}
