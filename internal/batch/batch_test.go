package batch

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

func fixture(t *testing.T) (*corpus.Corpus, *ontology.Ontology) {
	t.Helper()
	c := corpus.New(textutil.English)
	c.AddAll([]corpus.Document{
		{ID: "1", Text: "Corneal abrasion with epithelium scarring."},
		{ID: "2", Text: "Membrane grafts after corneal injury."},
	})
	c.Build()
	o := ontology.New("test")
	if _, err := o.AddConcept("C1", "corneal abrasion"); err != nil {
		t.Fatal(err)
	}
	return c, o
}

// TestSingleIngestCommits: one caller, one group, one epoch; the
// returned snapshot holds the documents.
func TestSingleIngestCommits(t *testing.T) {
	c, o := fixture(t)
	st := state.NewStore(c, o)
	b := New(st, nil)
	defer b.Close()

	base := st.Load()
	snap, err := b.Ingest(context.Background(), []corpus.Document{
		{ID: "n1", Text: "retinal detachment"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != base.Epoch+1 {
		t.Errorf("epoch = %d, want %d", snap.Epoch, base.Epoch+1)
	}
	if snap.Corpus.NumDocs() != base.Corpus.NumDocs()+1 {
		t.Errorf("docs = %d, want %d", snap.Corpus.NumDocs(), base.Corpus.NumDocs()+1)
	}
	if snap.Corpus.TF("retinal") != 1 {
		t.Errorf("TF(retinal) = %d, want 1 (ingested doc not indexed)", snap.Corpus.TF("retinal"))
	}
	if base.Corpus.NumDocs() != 2 {
		t.Error("base snapshot mutated by ingest")
	}
}

// blockFirst is a durability hook that parks the first publish until
// open is called, so a test can queue requests behind a commit in
// flight. Every publish, the first included, returns err.
type blockFirst struct {
	entered  chan struct{} // closed once the first publish is parked
	release  chan struct{} // closed by open
	parked   sync.Once
	released sync.Once
	err      error
}

func (h *blockFirst) BeforePublish(*state.Snapshot, *state.Delta) error {
	h.parked.Do(func() {
		close(h.entered)
		<-h.release
	})
	return h.err
}

// open lets the parked publish finish. Idempotent.
func (h *blockFirst) open() { h.released.Do(func() { close(h.release) }) }

// blockedBatcher builds a batcher over a fresh fixture store whose
// hook fails every publish with hookErr, and parks its first commit
// (one "blocker" document) in that hook, so later requests queue
// behind a commit in flight. It returns once the commit is parked,
// with a channel carrying that commit's outcome. Cleanup opens the
// hook before closing the batcher, so a failed test does not hang.
func blockedBatcher(t *testing.T, hookErr error) (*Batcher, *state.Store, *blockFirst, <-chan error) {
	t.Helper()
	c, o := fixture(t)
	st := state.NewStore(c, o)
	hook := &blockFirst{entered: make(chan struct{}), release: make(chan struct{}), err: hookErr}
	st.SetDurable(hook)
	b := New(st, nil)
	t.Cleanup(b.Close)
	t.Cleanup(hook.open) // cleanups run last-in, first-out
	done := make(chan error, 1)
	go func() {
		_, err := b.Ingest(context.Background(), []corpus.Document{{ID: "blocker", Text: "blocking commit"}})
		done <- err
	}()
	<-hook.entered
	return b, st, hook, done
}

// waitFor polls cond, evaluated under b.mu, until it holds.
func waitFor(t *testing.T, b *Batcher, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		b.mu.Lock()
		ok := cond()
		b.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued blocks until n requests wait behind the commit in flight.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	waitFor(t, b, fmt.Sprintf("%d queued requests", n), func() bool { return len(b.pending) == n })
}

// ingestAll starts n single-document Ingests, document i carrying the
// token uniqueToken(i), and returns a wait function yielding every
// caller's snapshot and error.
func ingestAll(b *Batcher, n int) func() ([]*state.Snapshot, []error) {
	var wg sync.WaitGroup
	snaps := make([]*state.Snapshot, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i], errs[i] = b.Ingest(context.Background(), []corpus.Document{
				{ID: fmt.Sprintf("d%d", i), Text: uniqueToken(i) + " lesion"},
			})
		}(i)
	}
	return func() ([]*state.Snapshot, []error) {
		wg.Wait()
		return snaps, errs
	}
}

func uniqueToken(i int) string { return fmt.Sprintf("uniquetoken%d", i) }

// TestConcurrentIngestOneGroup: N writers that queue while a commit is
// in flight land as exactly one group — one epoch, one published
// snapshot shared by all of them — and every caller's snapshot
// contains its own document.
func TestConcurrentIngestOneGroup(t *testing.T) {
	b, st, hook, blocked := blockedBatcher(t, nil)
	base := st.Load()
	const n = 32
	wait := ingestAll(b, n)
	waitQueued(t, b, n)
	hook.open()
	if err := <-blocked; err != nil {
		t.Fatalf("blocking commit: %v", err)
	}
	snaps, errs := wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if snaps[i] != snaps[0] {
			t.Errorf("writer %d: snapshot epoch %d, writer 0 epoch %d (not one group)", i, snaps[i].Epoch, snaps[0].Epoch)
		}
		if tf := snaps[i].Corpus.TF(uniqueToken(i)); tf != 1 {
			t.Errorf("writer %d: TF(own token) = %d, want 1", i, tf)
		}
	}
	final := st.Load()
	if final.Epoch != base.Epoch+2 || snaps[0] != final {
		t.Errorf("final epoch = %d, want %d (blocking commit + one group)", final.Epoch, base.Epoch+2)
	}
	if final.Corpus.NumDocs() != base.Corpus.NumDocs()+n+1 {
		t.Errorf("final docs = %d, want %d", final.Corpus.NumDocs(), base.Corpus.NumDocs()+n+1)
	}
}

// TestConcurrentIngestAllLand: N racing writers all land, the store
// gains exactly N documents, and grouping keeps the epoch count at or
// below the writer count.
func TestConcurrentIngestAllLand(t *testing.T) {
	c, o := fixture(t)
	st := state.NewStore(c, o)
	b := New(st, nil)
	defer b.Close()

	base := st.Load()
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.Ingest(context.Background(), []corpus.Document{
				{ID: fmt.Sprintf("r%d", i), Text: "vitreous hemorrhage"},
			}); err != nil {
				t.Errorf("writer %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	final := st.Load()
	if got := final.Corpus.NumDocs() - base.Corpus.NumDocs(); got != n {
		t.Errorf("ingested %d docs, want %d", got, n)
	}
	if commits := final.Epoch - base.Epoch; commits > n {
		t.Errorf("epochs advanced %d times for %d writers", commits, n)
	}
}

// TestGroupFailureFansOutToEveryCaller: when the durability hook
// rejects a group, nothing publishes and every caller in the group
// gets the very same error, wrapped in state.ErrUnavailable.
func TestGroupFailureFansOutToEveryCaller(t *testing.T) {
	b, st, hook, blocked := blockedBatcher(t, errors.New("disk full"))
	base := st.Load()
	const n = 8
	wait := ingestAll(b, n)
	waitQueued(t, b, n)
	hook.open()
	if err := <-blocked; !errors.Is(err, state.ErrUnavailable) {
		t.Fatalf("blocking commit: err = %v, want state.ErrUnavailable", err)
	}
	snaps, errs := wait()

	for i, err := range errs {
		if err == nil || snaps[i] != nil {
			t.Fatalf("writer %d: snapshot %v, error %v from a failed group", i, snaps[i], err)
		}
		if !errors.Is(err, state.ErrUnavailable) {
			t.Errorf("writer %d: error %v does not wrap state.ErrUnavailable", i, err)
		}
		if err != errs[0] {
			t.Errorf("writer %d: error %v, writer 0 got %v (not one group)", i, err, errs[0])
		}
	}
	final := st.Load()
	if final != base {
		t.Errorf("failed groups published: epoch %d→%d docs %d→%d",
			base.Epoch, final.Epoch, base.Corpus.NumDocs(), final.Corpus.NumDocs())
	}
}

// TestCloseFlushesPendingAndRejectsNew: Close during a commit in
// flight rejects new Ingests at once, lets the queued requests land as
// a final group, and returns only after that group committed.
func TestCloseFlushesPendingAndRejectsNew(t *testing.T) {
	b, st, hook, blocked := blockedBatcher(t, nil)
	const n = 4
	wait := ingestAll(b, n)
	waitQueued(t, b, n)

	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	waitFor(t, b, "Close", func() bool { return b.closed })
	if _, err := b.Ingest(context.Background(), []corpus.Document{{ID: "late", Text: "late"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest while closing = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a commit was still in flight")
	default:
	}

	hook.open()
	<-closed
	if err := <-blocked; err != nil {
		t.Fatalf("blocking commit: %v", err)
	}
	_, errs := wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("queued writer %d failed on close: %v", i, errs[i])
		}
		if st.Load().Corpus.TF(uniqueToken(i)) != 1 {
			t.Errorf("queued writer %d: document did not land on close", i)
		}
	}
	if _, err := b.Ingest(context.Background(), []corpus.Document{{ID: "later", Text: "later"}}); !errors.Is(err, ErrClosed) {
		t.Errorf("ingest after close = %v, want ErrClosed", err)
	}
	b.Close() // idempotent
}

// TestIngestContextCancelStopsWaiting: a caller whose context dies
// while its group waits behind a commit in flight returns at once; its
// documents still land.
func TestIngestContextCancelStopsWaiting(t *testing.T) {
	b, st, hook, blocked := blockedBatcher(t, nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.Ingest(ctx, []corpus.Document{{ID: "c1", Text: "abandoned caller"}})
		done <- err
	}()
	waitQueued(t, b, 1)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled caller still waiting")
	}

	// The cancelled wait did not cancel the commit: once the blocking
	// commit finishes, the abandoned caller's group lands too.
	hook.open()
	if err := <-blocked; err != nil {
		t.Fatalf("blocking commit: %v", err)
	}
	b.Close()
	if st.Load().Corpus.TF("abandoned") != 1 {
		t.Fatal("abandoned caller's documents never landed")
	}
}

// TestEmptyBatchRejected: a zero-document Ingest is a caller bug and
// never reaches the store.
func TestEmptyBatchRejected(t *testing.T) {
	c, o := fixture(t)
	st := state.NewStore(c, o)
	b := New(st, nil)
	defer b.Close()
	if _, err := b.Ingest(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if st.Load().Epoch != 1 {
		t.Error("empty batch advanced the epoch")
	}
}

// TestBatchedEnrichmentReportIdentical: a corpus grown through the
// batcher yields a byte-for-byte identical enrichment report to one
// grown through the unbatched clone-and-rebuild path — batching is
// invisible to the pipeline.
func TestBatchedEnrichmentReportIdentical(t *testing.T) {
	docs := []corpus.Document{
		{ID: "n1", Text: "Corneal abrasion of the epithelium after lesion."},
		{ID: "n2", Text: "Retinal detachment with vitreous hemorrhage."},
		{ID: "n3", Text: "Corneal lesion grafts and membrane scarring."},
	}

	// Unbatched: the old write path, one full rebuild.
	c1, o1 := fixture(t)
	st1 := state.NewStore(c1, o1)
	if _, err := st1.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
		cc := cur.Corpus.Clone()
		cc.AddAll(docs)
		cc.Build()
		return cc, cur.Ontology, &state.Delta{Docs: docs}, nil
	}); err != nil {
		t.Fatal(err)
	}

	// Batched: same documents through the group committer.
	c2, o2 := fixture(t)
	st2 := state.NewStore(c2, o2)
	b := New(st2, nil)
	defer b.Close()
	if _, err := b.Ingest(context.Background(), docs); err != nil {
		t.Fatal(err)
	}

	cfg := core.DefaultConfig()
	cfg.TopCandidates = 5
	report := func(st *state.Store) []byte {
		snap := st.Load()
		rep, err := core.NewEnricher(snap.Corpus, snap.Ontology, cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	r1, r2 := report(st1), report(st2)
	if string(r1) != string(r2) {
		t.Errorf("reports diverge:\nunbatched: %s\nbatched:   %s", r1, r2)
	}
}
