// Package registry hosts several named ontologies inside one server
// process — the deployment shape of NCBO BioPortal, where a single
// service fronts many terminologies and a recommender picks the best
// one for an input corpus. Each entry wraps its own snapshot store
// (internal/state): an immutable (corpus, ontology, epoch) triple
// behind an atomic pointer, independently ingestable and enrichable.
//
// The registry owns every entry's durable state. Open is the one way
// an entry comes to exist, whether it is the default entry, one named
// on the command line, one an earlier process left on disk or one
// created through the API. In memory it serves the seed. Over a data
// directory it recovers the entry's directory, or seeds it at epoch 1
// when it holds nothing, and installs the disk backend as the store's
// durability hook. The default entry's state lives at the data
// directory's root and every other entry's under ontologies/<name>/.
// Close shuts each entry down in order: flush its ingest batcher,
// checkpoint its final snapshot, close its disk.
//
// The registry follows the same lock-free read discipline as the
// stores it holds: the name → entry map is immutable and swapped
// atomically on registration (copy-on-write under a writer mutex), so
// resolving an entry on the request path is one atomic pointer load —
// a read never blocks, however many ontologies are being opened or
// enriched concurrently. Open checks and holds the name under that
// mutex before it touches a file, so a refused or racing registration
// never writes into another entry's directory.
package registry

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"bioenrich/internal/batch"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/storage"
)

var (
	// ErrExists is returned by Open for a name already registered. The
	// HTTP layer maps it to 409 Conflict.
	ErrExists = errors.New("registry: ontology already registered")
	// ErrNotFound is returned for lookups of unregistered names. The
	// HTTP layer maps it to 404.
	ErrNotFound = errors.New("registry: no such ontology")

	// errNoSeed is a cold start with a nil seed.
	errNoSeed = errors.New("no durable state and no seed")
)

// Seed builds an entry's first corpus and ontology. Open calls it only
// on a cold start: always in memory, and over a data directory only
// when the entry's directory holds no durable state. It runs under the
// registry's writer mutex, so it must not call back into the registry.
// The caller hands over ownership of what it returns.
type Seed func() (*corpus.Corpus, *ontology.Ontology, error)

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
	// disk is the entry's durability backend, installed as Store's
	// hook; nil in memory.
	disk *storage.Disk
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

// close shuts the entry down. Queued batches flush as one final group
// and later Ingest calls fail with batch.ErrClosed, so no group commit
// races what follows. A durable entry then checkpoints its final
// snapshot, which bounds the next boot's WAL replay to zero records,
// and closes its disk.
func (e *Entry) close() error {
	e.ingest.Close()
	if e.disk == nil {
		return nil
	}
	var err error
	if cerr := e.disk.Checkpoint(e.Store.Load()); cerr != nil {
		err = fmt.Errorf("registry: shutdown checkpoint of %q: %w", e.Name, cerr)
	}
	return errors.Join(err, e.disk.Close())
}

// Registry maps names to entries. Reads (Get, Default, Entries) are
// lock-free; Open and Close serialize on a writer mutex, and Open
// publishes a fresh map. The zero value is not usable; call New.
type Registry struct {
	defaultName string
	// disk is the template every entry's backend opens with: Dir is
	// the data directory's root ("" keeps every entry in memory), and
	// Obs also instruments every entry's ingest batcher.
	disk storage.DiskOptions
	// mu serializes Open and Close. Readers never touch it: lookups
	// load the current immutable map through the atomic pointer.
	mu      sync.Mutex
	entries atomic.Pointer[map[string]*Entry]
}

// ValidName reports whether name is acceptable as a registry key:
// 1–64 characters of letters, digits, '-', '_' or '.', so names embed
// safely in URL paths, metric labels and data-directory names. "." and
// ".." are refused: as directory names they resolve to ontologies/
// itself and to the default entry's directory.
func ValidName(name string) bool {
	if name == "" || len(name) > 64 || name == "." || name == ".." {
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

// New builds a registry over disk and opens its default entry from
// seed. The default entry is what the single-ontology API surface (the
// pre-registry routes) serves. disk.Dir is the data directory's root,
// "" for in memory; its other fields configure every entry's backend.
func New(ctx context.Context, defaultName string, seed Seed, disk storage.DiskOptions) (*Registry, error) {
	r := &Registry{defaultName: defaultName, disk: disk}
	m := make(map[string]*Entry, 1)
	r.entries.Store(&m)
	if _, err := r.Open(ctx, defaultName, seed); err != nil {
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

// Open registers name and returns its entry. It fails with ErrExists
// for a registered name and a plain error for an invalid one, and in
// both cases touches no file. Otherwise it builds the entry's store:
// in memory from seed; over a data directory by recovering the entry's
// directory, or, when that holds no durable state, by checkpointing
// seed's snapshot there at epoch 1, so the next boot warm-restarts
// even if no ingest ever lands. A nil seed makes a cold start an
// error. Readers observe the entry atomically: they serve from the
// previous map until the swap.
func (r *Registry) Open(ctx context.Context, name string, seed Seed) (*Entry, error) {
	if !ValidName(name) {
		return nil, fmt.Errorf(`registry: invalid ontology name %q (want 1-64 chars of [A-Za-z0-9._-], not "." or "..")`, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.entries.Load()
	if _, dup := (*cur)[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, name)
	}
	st, d, err := r.openStore(ctx, name, seed)
	if err != nil {
		return nil, fmt.Errorf("registry: open %q: %w", name, err)
	}
	e := &Entry{Name: name, Store: st, ingest: batch.New(st, r.disk.Obs), disk: d}
	next := make(map[string]*Entry, len(*cur)+1)
	for k, v := range *cur {
		next[k] = v
	}
	next[name] = e
	r.entries.Store(&next)
	return e, nil
}

// openStore builds name's store and, over a data directory, the disk
// backend installed as its durability hook. Callers hold mu.
func (r *Registry) openStore(ctx context.Context, name string, seed Seed) (*state.Store, *storage.Disk, error) {
	if r.disk.Dir == "" {
		snap, err := seedSnapshot(seed)
		if err != nil {
			return nil, nil, err
		}
		return state.NewStore(snap.Corpus, snap.Ontology), nil, nil
	}
	opts := r.disk
	opts.Dir = r.entryDir(name)
	d, err := storage.OpenDisk(opts)
	if err != nil {
		return nil, nil, err
	}
	snap, recovered, err := d.Recover(ctx)
	if err == nil && !recovered {
		if snap, err = seedSnapshot(seed); err == nil {
			err = d.Checkpoint(snap)
		}
	}
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	if recovered {
		slog.Info("warm restart from durable state", "ontology", name,
			"data_dir", opts.Dir, "epoch", snap.Epoch,
			"docs", snap.Corpus.NumDocs(), "concepts", snap.Ontology.NumConcepts())
	} else {
		slog.Info("cold start: seeded data dir", "ontology", name, "data_dir", opts.Dir)
	}
	st := state.NewStoreAt(snap.Corpus, snap.Ontology, snap.Epoch)
	st.SetDurable(d)
	return st, d, nil
}

// seedSnapshot runs seed into its epoch-1 snapshot, refusing a nil
// seed.
func seedSnapshot(seed Seed) (*state.Snapshot, error) {
	if seed == nil {
		return nil, errNoSeed
	}
	c, o, err := seed()
	if err != nil {
		return nil, fmt.Errorf("seed: %w", err)
	}
	return &state.Snapshot{Corpus: c, Ontology: o, Epoch: 1}, nil
}

// entryDir is where name's durable state lives: the default entry at
// the data directory's root, so old data directories keep working,
// and every other entry under ontologies/<name>.
func (r *Registry) entryDir(name string) string {
	if name == r.defaultName {
		return r.disk.Dir
	}
	return filepath.Join(r.disk.Dir, "ontologies", name)
}

// OpenDiscovered opens, in name order, every entry an earlier process
// left under the data directory's ontologies/ that is not registered
// yet — entries created through the API, which have durable state but
// no seed. A directory with no durable state is skipped: its create
// crashed before the first checkpoint, so it was never acknowledged.
// In memory it does nothing.
func (r *Registry) OpenDiscovered(ctx context.Context) error {
	if r.disk.Dir == "" {
		return nil
	}
	names, err := discoverEntries(r.disk.Dir)
	if err != nil {
		return err
	}
	for _, name := range names {
		_, err := r.Open(ctx, name, nil)
		switch {
		case errors.Is(err, errNoSeed):
			slog.Warn("registry: skipping ontology directory with no durable state", "ontology", name)
		case err != nil && !errors.Is(err, ErrExists):
			return err
		}
	}
	return nil
}

// discoverEntries lists the entry directories under
// dataDir/ontologies, sorted: valid names only, skipping stray files
// and empty directories (an entry never checkpointed).
func discoverEntries(dataDir string) ([]string, error) {
	root := filepath.Join(dataDir, "ontologies")
	des, err := os.ReadDir(root)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: scan ontology entries: %w", err)
	}
	var names []string
	for _, de := range des {
		if !de.IsDir() || !ValidName(de.Name()) {
			continue
		}
		inner, err := os.ReadDir(filepath.Join(root, de.Name()))
		if err != nil {
			return nil, fmt.Errorf("registry: scan ontology entries: %w", err)
		}
		if len(inner) > 0 {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	return names, nil
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

// Close shuts every entry down in name order: its batcher flushes
// queued groups and refuses later Ingest calls with batch.ErrClosed,
// then a durable entry checkpoints its final snapshot and closes its
// disk. A crash skips all of this; that is what recovery is for. The
// error joins every entry's checkpoint and close errors; an entry
// whose checkpoint failed replays its WAL on the next boot. Quiesce
// registrations first: an entry opened after Close stays live.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var errs []error
	for _, e := range r.Entries() {
		errs = append(errs, e.close())
	}
	return errors.Join(errs...)
}
