// Package state implements the snapshot-isolated store the HTTP
// server serves from. A Snapshot is an immutable (corpus, ontology,
// epoch) triple; the Store hands the current snapshot to readers
// through an atomic pointer — a read never takes a lock and never
// blocks, however long a mutation is taking to prepare. Mutations
// build on clones off to the side and commit by swapping the pointer:
// Commit is an epoch-checked compare-and-swap (a commit built on a
// superseded snapshot fails with ErrStale instead of silently
// clobbering the interleaved write), and UpdateDelta serializes
// read-modify-write sequences that must always land (document
// ingestion). The short writer mutex covers only the pointer swap and
// the epoch check — never the pipeline work that produced the clone.
package state

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
)

// ErrStale is returned by Commit when the snapshot the mutation was
// built on is no longer current: another commit landed in between.
// The HTTP layer maps it to 409 Conflict.
var ErrStale = errors.New("state: snapshot is stale (a concurrent commit landed first)")

// ErrUnavailable marks a publish the durability hook rejected: the
// storage layer could not make the mutation durable (disk full, fsync
// failure, backend shut down). Nothing was published and the mutation
// is safe to retry, which distinguishes it from a programmer error —
// the HTTP layer maps it to 503 Service Unavailable, not 500.
var ErrUnavailable = errors.New("state: durability hook rejected publish")

// Snapshot is one immutable version of the served data. Treat every
// field as read-only: mutations clone first (ontology.Clone,
// corpus.Clone) and commit the clone as a new snapshot. Only the Slot
// is filled after publishing, through Derived, with a value derived
// from the rest.
type Snapshot struct {
	Corpus   *corpus.Corpus
	Ontology *ontology.Ontology
	// Epoch identifies the version: it increments by one per commit.
	// A mutation records the epoch it was built on; Commit rejects it
	// once the store has moved past that epoch.
	Epoch uint64
	// Slot keeps what is derived from this corpus and ontology
	// together: classify's concept-profile index, built on the
	// snapshot's first classification. Every published snapshot starts
	// with an empty one.
	corpus.Slot
}

// Delta is the incremental durable payload of a mutation — what a
// Durable sink can log instead of persisting the whole snapshot. A
// nil Delta tells the sink the mutation has no incremental form (an
// enrichment apply rewrote the ontology in place), so durability
// requires a full snapshot image.
type Delta struct {
	// Docs are the documents this mutation appended to the corpus, in
	// ingestion order. This is exactly what a write-ahead log replays
	// on boot to rebuild the post-mutation corpus from the previous
	// snapshot.
	Docs []corpus.Document
}

// Durable is the store's durability hook (implemented by
// storage.Disk). BeforePublish runs under the writer mutex after
// the next snapshot is built and before the pointer swap — the commit
// point. Returning an error aborts the mutation with nothing
// published, which is what makes "not durable until fsynced" hold:
// readers can never observe an epoch that a crash could lose.
type Durable interface {
	BeforePublish(next *Snapshot, delta *Delta) error
}

// Store holds the current snapshot. The zero value is not usable;
// call NewStore.
type Store struct {
	// mu serializes commits only. Readers never touch it: Load is a
	// single atomic pointer read.
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]
	// durable, when non-nil, gates every publish (guarded by mu).
	durable Durable
}

// NewStore builds a store whose first snapshot (epoch 1) wraps c and
// o. The caller hands over ownership: c and o must not be mutated
// afterwards except through Commit/UpdateDelta.
func NewStore(c *corpus.Corpus, o *ontology.Ontology) *Store {
	return NewStoreAt(c, o, 1)
}

// NewStoreAt builds a store whose first snapshot carries an explicit
// epoch — the warm-restart entry point: a store recovered from disk
// resumes at the exact pre-crash epoch, so clients that pinned an
// epoch across the restart still get coherent ErrStale semantics.
// epoch 0 is normalized to 1 (a fresh store).
func NewStoreAt(c *corpus.Corpus, o *ontology.Ontology, epoch uint64) *Store {
	if epoch == 0 {
		epoch = 1
	}
	s := &Store{}
	s.cur.Store(&Snapshot{Corpus: c, Ontology: o, Epoch: epoch})
	return s
}

// SetDurable installs d as the durability hook consulted before every
// publish. Install it before the store is shared with writers; a nil
// d (the default) is the in-memory behavior, where the swap alone is
// the commit point.
func (s *Store) SetDurable(d Durable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durable = d
}

// Load returns the current snapshot. It never blocks — concurrent
// commits swap the pointer; the caller keeps a consistent view for as
// long as it holds the returned snapshot.
func (s *Store) Load() *Snapshot {
	return s.cur.Load()
}

// Commit publishes (c, o) as the next snapshot if and only if base is
// still current; otherwise it returns ErrStale and changes nothing.
// This is the optimistic path for long mutations (enrichment apply):
// the expensive work runs without any lock against the base snapshot,
// and only the epoch check + pointer swap happen under the writer
// mutex.
func (s *Store) Commit(base *Snapshot, c *corpus.Corpus, o *ontology.Ontology) (*Snapshot, error) {
	if base == nil {
		return nil, fmt.Errorf("state: commit with nil base snapshot")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	if cur.Epoch != base.Epoch {
		return nil, fmt.Errorf("%w: built on epoch %d, store at epoch %d", ErrStale, base.Epoch, cur.Epoch)
	}
	next := &Snapshot{Corpus: c, Ontology: o, Epoch: cur.Epoch + 1}
	// A commit has no incremental form — the enriched ontology is a
	// rewrite — so the durability hook gets a nil delta and persists a
	// full snapshot before the swap.
	if err := s.publish(next, nil); err != nil {
		return nil, err
	}
	return next, nil
}

// UpdateDelta runs fn against the current snapshot under the writer
// mutex and commits whatever it returns as the next snapshot. Unlike
// Commit, an UpdateDelta cannot lose a race — concurrent calls
// serialize — so it is the path for mutations that must always land,
// like document ingestion. fn must not mutate the snapshot it is given
// (clone, then modify the clone); returning an error aborts with
// nothing published. Readers are never blocked: they keep loading the
// previous snapshot until the swap. fn also returns the Delta a
// durable sink should log (for document ingestion, the appended docs —
// one WAL record instead of a full snapshot rewrite); a nil delta
// means full-snapshot durability, as for Commit.
func (s *Store) UpdateDelta(fn func(*Snapshot) (*corpus.Corpus, *ontology.Ontology, *Delta, error)) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.cur.Load()
	c, o, delta, err := fn(cur)
	if err != nil {
		return nil, err
	}
	next := &Snapshot{Corpus: c, Ontology: o, Epoch: cur.Epoch + 1}
	if err := s.publish(next, delta); err != nil {
		return nil, err
	}
	return next, nil
}

// publish is the single commit point: it consults the durability hook
// (still under mu, still before any reader can see next) and performs
// the pointer swap only once the mutation is durable. Callers hold mu.
func (s *Store) publish(next *Snapshot, delta *Delta) error {
	if s.durable != nil {
		if err := s.durable.BeforePublish(next, delta); err != nil {
			return fmt.Errorf("%w: epoch %d: %w", ErrUnavailable, next.Epoch, err)
		}
	}
	s.cur.Store(next)
	return nil
}
