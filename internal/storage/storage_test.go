package storage

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bioenrich/internal/core"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"
)

// fixture builds a tiny built corpus and ontology, the seed for every
// durability scenario.
func fixture(t *testing.T) (*corpus.Corpus, *ontology.Ontology) {
	t.Helper()
	c := corpus.New(textutil.English)
	c.Add(corpus.Document{ID: "seed-1", Title: "seed", Text: "Corneal abrasion with corneal scarring."})
	c.Build()
	o := ontology.New("mesh")
	if _, err := o.AddConcept("D1", "eye diseases"); err != nil {
		t.Fatal(err)
	}
	if err := o.AddSynonym("D1", "ocular diseases"); err != nil {
		t.Fatal(err)
	}
	return c, o
}

// openSeeded opens a disk backend on dir and seeds it at epoch 1,
// mirroring cmd/serve's cold-start path.
func openSeeded(t *testing.T, dir string, opts DiskOptions) (*Disk, *state.Store) {
	t.Helper()
	opts.Dir = dir
	d, err := OpenDisk(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	snap, ok, err := d.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var st *state.Store
	if ok {
		st = state.NewStoreAt(snap.Corpus, snap.Ontology, snap.Epoch)
	} else {
		c, o := fixture(t)
		st = state.NewStore(c, o)
		if err := d.Checkpoint(st.Load()); err != nil {
			t.Fatal(err)
		}
	}
	st.SetDurable(d)
	return d, st
}

// ingest appends one document through the store's delta path, the way
// the server's POST /v1/documents handler does.
func ingest(t *testing.T, st *state.Store, id string) *state.Snapshot {
	t.Helper()
	doc := corpus.Document{ID: id, Text: "Retinal detachment with vitreous hemorrhage " + id + "."}
	snap, err := st.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
		cc := cur.Corpus.Clone()
		cc.Add(doc)
		cc.Build()
		return cc, cur.Ontology, &state.Delta{Docs: []corpus.Document{doc}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// reopen recovers a fresh backend from dir, as a restarted process
// would.
func reopen(t *testing.T, dir string, opts DiskOptions) *state.Snapshot {
	t.Helper()
	opts.Dir = dir
	d, err := OpenDisk(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	snap, ok, err := d.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("reopen found a cold directory")
	}
	return snap
}

// corpusImage renders the canonical byte image of a corpus, the
// equality notion used throughout ("byte-identical recovery").
func corpusImage(t *testing.T, c *corpus.Corpus) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func ontologyImage(t *testing.T, o *ontology.Ontology) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdStartRecover: an empty directory is a cold start, not an
// error; after seeding, a reopen warm-restarts at the seed epoch.
func TestColdStartRecover(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	if got := st.Load().Epoch; got != 1 {
		t.Fatalf("seed epoch = %d, want 1", got)
	}
	snap := reopen(t, dir, DiskOptions{})
	if snap.Epoch != 1 || snap.Corpus.NumDocs() != 1 || snap.Ontology.NumConcepts() != 1 {
		t.Fatalf("recovered epoch=%d docs=%d concepts=%d", snap.Epoch, snap.Corpus.NumDocs(), snap.Ontology.NumConcepts())
	}
}

// TestIngestSurvivesRestart: every acknowledged ingest is replayed to
// the exact pre-restart epoch, and the recovered corpus is
// byte-identical to the one the restarted process last served.
func TestIngestSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	var last *state.Snapshot
	for i := 0; i < 5; i++ {
		last = ingest(t, st, fmt.Sprintf("doc-%d", i))
	}
	want := corpusImage(t, last.Corpus)
	wantOnt := ontologyImage(t, last.Ontology)

	snap := reopen(t, dir, DiskOptions{})
	if snap.Epoch != last.Epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch, last.Epoch)
	}
	if got := corpusImage(t, snap.Corpus); !bytes.Equal(got, want) {
		t.Error("recovered corpus image differs from the last acknowledged one")
	}
	if got := ontologyImage(t, snap.Ontology); !bytes.Equal(got, wantOnt) {
		t.Error("recovered ontology image differs")
	}
}

// TestTornWALTailRecovers: a crash mid-append leaves a torn frame;
// recovery lands on the last fully fsynced epoch and the torn bytes
// are as if they never happened (they were never acknowledged).
func TestTornWALTailRecovers(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	var last *state.Snapshot
	for i := 0; i < 3; i++ {
		last = ingest(t, st, fmt.Sprintf("doc-%d", i))
	}

	// Simulate the crash: chop bytes off the active WAL's tail, cutting
	// into the final record.
	walPath := activeWALPath(t, dir)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	snap := reopen(t, dir, DiskOptions{})
	if snap.Epoch != last.Epoch-1 {
		t.Fatalf("recovered epoch = %d, want %d (last intact record)", snap.Epoch, last.Epoch-1)
	}
	if snap.Corpus.NumDocs() != last.Corpus.NumDocs()-1 {
		t.Fatalf("recovered %d docs, want %d", snap.Corpus.NumDocs(), last.Corpus.NumDocs()-1)
	}
}

// activeWALPath finds the newest WAL file in dir.
func activeWALPath(t *testing.T, dir string) string {
	t.Helper()
	bases, err := listWALs(dir)
	if err != nil || len(bases) == 0 {
		t.Fatalf("no wal in %s (err=%v)", dir, err)
	}
	return filepath.Join(dir, walName(bases[len(bases)-1]))
}

// TestCorruptSegmentFallsBack: a corrupt newest segment is skipped;
// recovery loads its predecessor and replays the retained WAL records
// over it, still reaching the exact last acknowledged epoch.
func TestCorruptSegmentFallsBack(t *testing.T) {
	dir := t.TempDir()
	d, st := openSeeded(t, dir, DiskOptions{Retain: -1})
	var last *state.Snapshot
	for i := 0; i < 3; i++ {
		last = ingest(t, st, fmt.Sprintf("doc-%d", i))
	}
	// A mid-stream checkpoint gives us a newer segment to corrupt while
	// the epoch-1 seed segment (and the WAL covering 2..) survive.
	if err := d.Checkpoint(st.Load()); err != nil {
		t.Fatal(err)
	}
	last = ingest(t, st, "doc-after-ckpt")

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, segName(segs[len(segs)-1]))
	// Flip a payload byte: magic stays right, checksum does not.
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	snap := reopen(t, dir, DiskOptions{Retain: -1})
	if snap.Epoch != last.Epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch, last.Epoch)
	}
	if got, want := corpusImage(t, snap.Corpus), corpusImage(t, last.Corpus); !bytes.Equal(got, want) {
		t.Error("fallback recovery corpus differs from last acknowledged state")
	}
}

// TestWALWithoutSegmentIsError: WAL files with no segment to replay
// onto mean acknowledged data cannot be reconstructed — recovery must
// refuse, not serve a partial view.
func TestWALWithoutSegmentIsError(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	ingest(t, st, "doc-1")
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range segs {
		if err := os.Remove(filepath.Join(dir, segName(e))); err != nil {
			t.Fatal(err)
		}
	}
	d2, err := OpenDisk(DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := d2.Recover(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "no segment") {
		t.Fatalf("recover = %v, want no-segment error", err)
	}
}

// TestEpochGapIsError: an intact record more than one epoch ahead
// means acknowledged records were lost; recovery refuses loudly.
func TestEpochGapIsError(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	ingest(t, st, "doc-1")

	// Forge a gap: append an intact record for epoch 5 (store is at 2).
	w, err := createWAL(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.append(5, []corpus.Document{{ID: "forged"}}); err != nil {
		t.Fatal(err)
	}
	w.close()

	d2, err := OpenDisk(DiskOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, _, err := d2.Recover(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Fatalf("recover = %v, want missing-records error", err)
	}
}

// TestCommitWritesSegment: the optimistic Commit path (enrichment
// apply) has no delta, so durability is a full segment keyed by the
// new epoch, and a restart recovers the committed ontology.
func TestCommitWritesSegment(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{})
	base := st.Load()
	o2 := base.Ontology.Clone()
	if err := o2.AddSynonym("D1", "diseases of the eye"); err != nil {
		t.Fatal(err)
	}
	next, err := st.Commit(base, base.Corpus, o2)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[len(segs)-1] != next.Epoch {
		t.Fatalf("newest segment epoch = %d, want %d", segs[len(segs)-1], next.Epoch)
	}
	snap := reopen(t, dir, DiskOptions{})
	if got, want := ontologyImage(t, snap.Ontology), ontologyImage(t, o2); !bytes.Equal(got, want) {
		t.Error("recovered ontology differs from committed one")
	}
}

// TestPeriodicCheckpointAndRetention: CheckpointEvery=1 makes every
// ingest roll a segment; Retain=2 keeps exactly the two newest and
// prunes WALs made redundant.
func TestPeriodicCheckpointAndRetention(t *testing.T) {
	dir := t.TempDir()
	_, st := openSeeded(t, dir, DiskOptions{Retain: 2, CheckpointEvery: 1})
	var last *state.Snapshot
	for i := 0; i < 5; i++ {
		last = ingest(t, st, fmt.Sprintf("doc-%d", i))
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[len(segs)-1] != last.Epoch {
		t.Fatalf("retained segments = %v, want newest two ending at %d", segs, last.Epoch)
	}
	wals, err := listWALs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, wb := range wals {
		if wb < segs[0] {
			t.Errorf("wal base %d survived retention below oldest segment %d", wb, segs[0])
		}
	}
	snap := reopen(t, dir, DiskOptions{Retain: 2, CheckpointEvery: 1})
	if snap.Epoch != last.Epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch, last.Epoch)
	}
}

// TestBeforePublishRequiresWAL: using the backend as a durability hook
// before Recover/Checkpoint is a programming error, reported not
// swallowed.
func TestBeforePublishRequiresWAL(t *testing.T) {
	d, err := OpenDisk(DiskOptions{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	err = d.BeforePublish(&state.Snapshot{Epoch: 2}, &state.Delta{Docs: []corpus.Document{{ID: "x"}}})
	if err == nil || !strings.Contains(err.Error(), "no active WAL") {
		t.Fatalf("BeforePublish = %v, want no-active-WAL error", err)
	}
}

// TestHookFailureAbortsPublish: when the durability hook fails, the
// store publishes nothing — readers never observe an epoch a crash
// could lose.
func TestHookFailureAbortsPublish(t *testing.T) {
	dir := t.TempDir()
	d, st := openSeeded(t, dir, DiskOptions{})
	before := st.Load()
	d.Close() // the next append must fail: the WAL handle is gone
	_, err := st.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
		cc := cur.Corpus.Clone()
		doc := corpus.Document{ID: "lost"}
		cc.Add(doc)
		cc.Build()
		return cc, cur.Ontology, &state.Delta{Docs: []corpus.Document{doc}}, nil
	})
	if err == nil {
		t.Fatal("publish succeeded with a dead durability hook")
	}
	if st.Load() != before {
		t.Error("store advanced despite the aborted publish")
	}
}

// TestRecoveryMatchesFullBuild: a corpus recovered from a segment
// plus WAL records, each replayed by an incremental AppendBuild, is
// reflect.DeepEqual to AddAll + Build over the same documents — no
// replayed document needs a full re-tokenizing rebuild.
func TestRecoveryMatchesFullBuild(t *testing.T) {
	dir := t.TempDir()
	d, st := openSeeded(t, dir, DiskOptions{})
	docs := append([]corpus.Document(nil), st.Load().Corpus.Documents()...)
	group := func(ids ...string) {
		t.Helper()
		var g []corpus.Document
		for _, id := range ids {
			g = append(g, corpus.Document{ID: id, Title: "case " + id, Text: "Corneal ulcer with retinal detachment, case " + id + "."})
		}
		if _, err := st.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
			cc := cur.Corpus.Clone()
			cc.AppendBuild(g)
			return cc, cur.Ontology, &state.Delta{Docs: g}, nil
		}); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, g...)
	}
	group("a1")
	group("a2", "a3", "a4")
	// A mid-stream segment ships token streams for WAL-ingested
	// documents too; the records after it replay onto that image.
	if err := d.Checkpoint(st.Load()); err != nil {
		t.Fatal(err)
	}
	group("b1", "b2")
	group("b3")

	snap := reopen(t, dir, DiskOptions{})
	if snap.Epoch != st.Load().Epoch {
		t.Fatalf("recovered epoch = %d, want %d", snap.Epoch, st.Load().Epoch)
	}
	want := corpus.New(textutil.English)
	want.AddAll(docs)
	want.Build()
	if !reflect.DeepEqual(snap.Corpus, want) {
		t.Error("recovered corpus differs from AddAll + Build over the same documents")
	}
}

// TestEnrichmentParityDiskVsMemory: the same mutation history produces
// byte-identical enrichment reports whether the store runs in memory
// (no durability hook) or was round-tripped through disk and recovered
// — durability must not perturb the pipeline's inputs in any way.
func TestEnrichmentParityDiskVsMemory(t *testing.T) {
	docs := []string{
		"Corneal abrasion with corneal scarring and corneal ulcer.",
		"Retinal detachment following vitreous hemorrhage of the retina.",
		"Macular degeneration with retinal drusen in the macula.",
	}

	// Memory lane: plain store, no hook, same ingests.
	cm, om := fixture(t)
	memStore := state.NewStore(cm, om)
	mutate := func(st *state.Store) {
		for i, text := range docs {
			text := text
			if _, err := st.UpdateDelta(func(cur *state.Snapshot) (*corpus.Corpus, *ontology.Ontology, *state.Delta, error) {
				doc := corpus.Document{ID: fmt.Sprintf("p-%d", i), Text: text}
				cc := cur.Corpus.Clone()
				cc.Add(doc)
				cc.Build()
				return cc, cur.Ontology, &state.Delta{Docs: []corpus.Document{doc}}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mutate(memStore)

	// Disk lane: same ingests, then a full crash-free restart cycle.
	dir := t.TempDir()
	_, diskStore := openSeeded(t, dir, DiskOptions{})
	mutate(diskStore)
	recovered := reopen(t, dir, DiskOptions{})

	report := func(snap *state.Snapshot) []byte {
		t.Helper()
		cfg := core.DefaultConfig()
		cfg.Workers = 1
		r, err := core.NewEnricher(snap.Corpus, snap.Ontology.Clone(), cfg).Run()
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	memReport := report(memStore.Load())
	diskReport := report(recovered)
	if !bytes.Equal(memReport, diskReport) {
		t.Errorf("enrichment reports diverge:\nmemory: %s\ndisk:   %s", memReport, diskReport)
	}
}
