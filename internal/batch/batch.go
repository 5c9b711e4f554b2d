// Package batch implements group-committed document ingestion: a
// micro-batcher between the HTTP ingest handlers and the snapshot
// store's serialized UpdateDelta path (internal/state).
//
// Without it, every POST /v1/documents pays the full write-path cost
// alone — one corpus clone, one index build, one WAL fsync, one epoch
// — all serialized under the store's writer mutex, so ingest
// throughput is O(corpus) per document. The batcher coalesces
// concurrent callers: each Ingest enqueues its documents with a
// per-caller response channel, and a single committer goroutine takes
// everything that queued while the previous group was committing,
// landing the union as one Clone + one incremental AppendBuild + one
// WAL record + one fsync + one epoch. The committed snapshot then fans
// back to every waiter. Under concurrency the commit of one group is
// the collection window of the next, which alone converges on large
// groups, and an idle server commits a lone request at once.
//
// Failure is all-or-nothing per group: state.Store publishes nothing
// when the durability hook rejects the batch (the fsync-before-swap
// invariant holds for the whole group), and the same error fans out to
// every caller in it — no caller is ever told its documents landed
// when they did not.
//
// The committer goroutine is demand-driven: the first Ingest into an
// empty queue spawns it, and it exits once the queue drains, so an
// idle batcher owns no goroutine and needs no lifecycle management.
// Close is still provided for clean shutdown: it stops new work,
// flushes whatever is queued as a final group, and waits for the
// in-flight commit to finish — after which the storage backend behind
// the store can be closed without racing an append.
package batch

import (
	"context"
	"errors"
	"sync"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
)

// ErrClosed is returned by Ingest after Close: the batcher no longer
// accepts work (its entry is shutting down). The HTTP layer maps it to
// 503 — the request is retryable against a live server.
var ErrClosed = errors.New("batch: batcher is closed")

// Metric names the batcher registers, exported so exposition tests can
// pin them.
const (
	// BatchesMetric counts committed groups (one epoch, one WAL record
	// and one fsync each).
	BatchesMetric = "bioenrich_ingest_batches_total"
	// BatchDocsMetric counts documents committed through groups.
	BatchDocsMetric = "bioenrich_ingest_batched_docs_total"
	// BatchSizeMetric is the documents-per-group histogram — the
	// coalescing factor the batcher achieves under load.
	BatchSizeMetric = "bioenrich_ingest_batch_docs"
)

// batchSizeBuckets spans group sizes from singleton (idle server) to
// the thousands a saturated writer pool produces.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// result is what fans back to one waiter: the snapshot its group
// committed as, or the error that failed the whole group.
type result struct {
	snap *state.Snapshot
	err  error
}

// request is one caller's enqueued batch plus its response channel.
// The channel is buffered so the committer never blocks fanning out to
// a caller that stopped waiting (context cancelled mid-group).
type request struct {
	docs []corpus.Document
	resp chan result
}

// Batcher group-commits document batches into one state.Store. Safe
// for concurrent use. Construct with New.
type Batcher struct {
	store *state.Store

	batches   *obs.Counter
	docsTotal *obs.Counter
	groupSize *obs.Histogram

	mu      sync.Mutex
	pending []*request // enqueued, not yet taken by the committer
	running bool       // a committer goroutine is live
	closed  bool
	wg      sync.WaitGroup // tracks the live committer for Close
}

// New builds a batcher committing into store. The store is shared with
// whoever else mutates it (enrichment applies commit through the same
// writer mutex); the batcher only serializes ingestion. metrics
// receives the group-commit metrics; nil disables them (the obs API is
// nil-safe).
func New(store *state.Store, metrics *obs.Registry) *Batcher {
	return &Batcher{
		store:     store,
		batches:   metrics.Counter(BatchesMetric),
		docsTotal: metrics.Counter(BatchDocsMetric),
		groupSize: metrics.Histogram(BatchSizeMetric, batchSizeBuckets),
	}
}

// Ingest enqueues docs and blocks until the group containing them
// commits (returning the committed snapshot, whose epoch covers the
// documents) or fails (returning the group's error, with nothing
// published). A cancelled ctx stops the wait, not the commit: the
// documents may still land, the caller just never learns the epoch —
// the same contract an HTTP client that disconnects mid-request
// already lives with.
func (b *Batcher) Ingest(ctx context.Context, docs []corpus.Document) (*state.Snapshot, error) {
	if len(docs) == 0 {
		return nil, errors.New("batch: empty document batch")
	}
	req := &request{docs: docs, resp: make(chan result, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	b.pending = append(b.pending, req)
	spawn := !b.running
	if spawn {
		b.running = true
		b.wg.Add(1)
	}
	b.mu.Unlock()
	if spawn {
		go b.commitLoop()
	}
	select {
	case res := <-req.resp:
		return res.snap, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Close stops accepting work, flushes everything queued as a final
// group, and waits for the in-flight commit to finish. Idempotent;
// subsequent Ingest calls fail with ErrClosed.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.wg.Wait()
}

// commitLoop is the single committer: it repeatedly takes everything
// queued as one group and commits it, exiting when the queue drains.
// At most one commitLoop runs per batcher (guarded by b.running);
// Ingest respawns it on the next enqueue.
func (b *Batcher) commitLoop() {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		group := b.pending
		b.pending = nil
		if len(group) == 0 {
			b.running = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.commit(group)
	}
}

// commit lands one group as a single store mutation — one
// clone, one incremental build, one durable delta (one WAL record and
// fsync on a disk backend), one epoch — then fans the outcome to every
// caller in the group. On error the store published nothing and every
// caller sees the same failure.
func (b *Batcher) commit(group []*request) {
	n := 0
	for _, r := range group {
		n += len(r.docs)
	}
	union := make([]corpus.Document, 0, n)
	for _, r := range group {
		union = append(union, r.docs...)
	}
	snap, err := b.store.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
		cc := cur.Corpus.Clone()
		cc.AppendBuild(union)
		return cc, cur.Ontology, &state.Delta{Docs: union}, nil
	})
	if err == nil {
		b.batches.Inc()
		b.docsTotal.Add(float64(n))
		b.groupSize.Observe(float64(n))
	}
	for _, r := range group {
		r.resp <- result{snap: snap, err: err}
	}
}
