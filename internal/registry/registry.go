// Package registry hosts several named ontologies inside one server
// process — the deployment shape of NCBO BioPortal, where a single
// service fronts many terminologies and a recommender picks the best
// one for an input corpus. Each entry wraps its own snapshot store
// (internal/state): an immutable (corpus, ontology, epoch) triple
// behind an atomic pointer, independently ingestable and enrichable,
// optionally with its own durability backend.
//
// The registry itself follows the same lock-free read discipline as
// the stores it holds: the name → entry map is immutable and swapped
// atomically on registration (copy-on-write under a short writer
// mutex), so resolving an entry on the request path is one atomic
// pointer load — a read never blocks, however many ontologies are
// being added or enriched concurrently.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"bioenrich/internal/batch"
	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/state"
)

var (
	// ErrExists is returned by Add for a name already registered. The
	// HTTP layer maps it to 409 Conflict.
	ErrExists = errors.New("registry: ontology already registered")
	// ErrNotFound is returned for lookups of unregistered names. The
	// HTTP layer maps it to 404.
	ErrNotFound = errors.New("registry: no such ontology")
)

// Entry is one hosted ontology: a name plus the snapshot store serving
// it and the group-commit batcher writing into it. The struct is
// immutable after registration; all mutation goes through the store's
// epoch-checked commit paths.
type Entry struct {
	// Name identifies the entry in URLs (/v1/ontologies/{name}) and
	// metric labels. See ValidName for the accepted alphabet.
	Name string
	// Store holds the entry's current immutable snapshot.
	Store *state.Store

	// ingest group-commits document batches into Store: every entry
	// gets its own batcher, so heavy ingestion into one ontology never
	// widens another's commit groups.
	ingest *batch.Batcher
}

// Snapshot loads the entry's current snapshot: one atomic pointer
// read, never blocking.
func (e *Entry) Snapshot() *state.Snapshot { return e.Store.Load() }

// Ingest appends docs to the entry's corpus through its group-commit
// batcher and blocks until the group containing them is durable and
// published (or failed — nothing published, same error to every caller
// in the group). The returned snapshot's epoch covers the documents.
func (e *Entry) Ingest(ctx context.Context, docs []corpus.Document) (*state.Snapshot, error) {
	return e.ingest.Ingest(ctx, docs)
}

// Close shuts down the entry's batcher: queued batches flush as one
// final group, then further Ingest calls fail with batch.ErrClosed.
// Called by Registry.Close; direct use is for tests.
func (e *Entry) Close() { e.ingest.Close() }

// Registry maps names to entries. Reads (Get, Default, Entries) are
// lock-free; Add serializes on a short writer mutex and publishes
// a fresh map. The zero value is not usable; call New.
type Registry struct {
	defaultName string
	// metrics instruments the ingest batcher every Add creates.
	metrics *obs.Registry
	// mu serializes Add only. Readers never touch it: lookups load the
	// current immutable map through the atomic pointer.
	mu      sync.Mutex
	entries atomic.Pointer[map[string]*Entry]
}

// ValidName reports whether name is acceptable as a registry key:
// 1–64 characters of letters, digits, '-', '_' or '.', so names embed
// safely in URL paths, metric labels and data-directory names.
func ValidName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// New builds a registry whose default entry is (defaultName, store).
// The default entry is what the single-ontology API surface (the
// pre-registry routes) serves. metrics receives the group-commit
// metrics of every entry's ingest batcher; nil disables them.
func New(defaultName string, store *state.Store, metrics *obs.Registry) (*Registry, error) {
	r := &Registry{defaultName: defaultName, metrics: metrics}
	m := make(map[string]*Entry, 1)
	r.entries.Store(&m)
	if _, err := r.Add(defaultName, store); err != nil {
		return nil, err
	}
	return r, nil
}

// DefaultName returns the name of the default entry.
func (r *Registry) DefaultName() string { return r.defaultName }

// Default returns the default entry. It always exists: New registers
// it and entries are never removed.
func (r *Registry) Default() *Entry {
	e, _ := r.Get(r.defaultName)
	return e
}

// Get resolves name to its entry. The empty name resolves to the
// default entry, so request payloads can omit the field.
func (r *Registry) Get(name string) (*Entry, bool) {
	if name == "" {
		name = r.defaultName
	}
	m := r.entries.Load()
	e, ok := (*m)[name]
	return e, ok
}

// Resolve is Get returning ErrNotFound (with the name) instead of a
// boolean — the form HTTP handlers want.
func (r *Registry) Resolve(name string) (*Entry, error) {
	e, ok := r.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return e, nil
}

// Add registers (name, store) and returns the new entry. Fails with
// ErrExists for a duplicate name and a plain error for an invalid one.
// Readers observe the entry atomically: they serve from the previous
// map until the swap.
func (r *Registry) Add(name string, store *state.Store) (*Entry, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf("registry: invalid ontology name %q (want 1-64 chars of [A-Za-z0-9._-])", name)
	}
	if store == nil {
		return nil, fmt.Errorf("registry: nil store for ontology %q", name)
	}
	e := &Entry{Name: name, Store: store, ingest: batch.New(store, r.metrics)}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.entries.Load()
	if _, dup := (*cur)[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	next := make(map[string]*Entry, len(*cur)+1)
	for k, v := range *cur {
		next[k] = v
	}
	next[name] = e
	r.entries.Store(&next)
	return e, nil
}

// Len returns the number of registered entries.
func (r *Registry) Len() int { return len(*r.entries.Load()) }

// Entries returns all entries sorted by name — the deterministic
// iteration order for listings and the recommender's input set.
func (r *Registry) Entries() []*Entry {
	m := r.entries.Load()
	out := make([]*Entry, 0, len(*m))
	for _, e := range *m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Close shuts down every entry's ingest batcher: queued groups flush,
// in-flight commits finish, and later Ingest calls fail with
// batch.ErrClosed. Call it before closing the storage backends behind
// the stores, so no group commit races a backend shutdown. Concurrent
// Add is the caller's responsibility to quiesce (an entry added after
// Close returns keeps a live batcher).
func (r *Registry) Close() {
	for _, e := range r.Entries() {
		e.Close()
	}
}
