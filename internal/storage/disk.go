package storage

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"bioenrich/internal/corpus"
	"bioenrich/internal/obs"
	"bioenrich/internal/ontology"
	"bioenrich/internal/state"
)

// DiskOptions configures a disk backend. Every WAL append is fsynced
// before it is acknowledged. The zero value (plus Dir) keeps three
// segments and checkpoints every 256 ingest records.
type DiskOptions struct {
	// Dir is the data directory (created if absent). Required.
	Dir string
	// Retain is how many full segments to keep; older segments (and
	// the WAL files they obsolete) are deleted at checkpoint. 0 means
	// 3; negative retains everything.
	Retain int
	// CheckpointEvery writes a full segment after that many WAL
	// records, bounding boot-time replay. 0 means 256; negative
	// disables automatic checkpoints (segments then appear only on
	// enrichment commits and explicit Checkpoint calls).
	CheckpointEvery int
	// Obs receives fsync/WAL/segment/replay metrics and the recovery
	// spans. nil disables instrumentation.
	Obs *obs.Registry
}

func (o DiskOptions) withDefaults() DiskOptions {
	if o.Retain == 0 {
		o.Retain = 3
	}
	if o.CheckpointEvery == 0 {
		o.CheckpointEvery = 256
	}
	return o
}

// Disk is the durable backend: segment files plus a write-ahead log
// in a data directory. Lifecycle: OpenDisk → Recover (or, on a cold
// start, Checkpoint with the seed snapshot) → install as the store's
// durability hook → Close on shutdown; internal/registry runs it for
// every served entry. All methods are safe for
// concurrent use, though in practice BeforePublish is already
// serialized under the store's writer mutex.
type Disk struct {
	mu   sync.Mutex
	opts DiskOptions
	dir  string

	wal             *wal
	segs            []uint64 // retained segment epochs, ascending
	sinceCheckpoint int      // WAL records since the last segment

	fsyncs     *obs.Counter
	fsyncSecs  *obs.Histogram
	walRecords *obs.Counter
	walDocs    *obs.Counter
	walBytes   *obs.Counter
	segsTotal  *obs.Counter
	segBytes   *obs.Gauge
	replayed   *obs.Counter
}

// OpenDisk opens (creating if needed) the data directory and scans
// its contents. No state is loaded yet — call Recover.
func OpenDisk(opts DiskOptions) (*Disk, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, errors.New("storage: DiskOptions.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create data dir %s: %w", opts.Dir, err)
	}
	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	d := &Disk{
		opts:       opts,
		dir:        opts.Dir,
		segs:       segs,
		fsyncs:     opts.Obs.Counter(FsyncMetric),
		fsyncSecs:  opts.Obs.Histogram(FsyncSecondsMetric, nil),
		walRecords: opts.Obs.Counter(WALRecordsMetric),
		walDocs:    opts.Obs.Counter(WALDocsMetric),
		walBytes:   opts.Obs.Counter(WALBytesMetric),
		segsTotal:  opts.Obs.Counter(SegmentsWrittenMetric),
		segBytes:   opts.Obs.Gauge(SegmentBytesMetric),
		replayed:   opts.Obs.Counter(ReplayedRecordsMetric),
	}
	return d, nil
}

// Recover loads the newest durable snapshot — the newest intact
// segment plus every intact WAL record after it, replayed in epoch
// order — and starts a fresh WAL at the recovered epoch, ready for
// BeforePublish. ok is false when the directory holds no durable state
// (cold start). An error means the directory holds data that cannot be
// trusted, and serving must not proceed: an epoch gap among intact
// records (acknowledged data that cannot be reconstructed) is an
// error, never a silent partial recovery.
func (d *Disk) Recover(ctx context.Context) (*state.Snapshot, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, span := d.opts.Obs.StartSpan(ctx, RecoverSpan)
	defer span.End()

	segs, err := listSegments(d.dir)
	if err != nil {
		return nil, false, err
	}
	wals, err := listWALs(d.dir)
	if err != nil {
		return nil, false, err
	}
	if len(segs) == 0 {
		if len(wals) == 0 {
			return nil, false, nil // genuinely cold
		}
		return nil, false, fmt.Errorf("storage: data dir %s has WAL files but no segment: nothing to replay onto", d.dir)
	}
	// Newest intact segment wins; a corrupt one falls back to its
	// predecessor (whose WAL records were retained for exactly this).
	var (
		c     *corpus.Corpus
		o     *ontology.Ontology
		epoch uint64
		found bool
	)
	for i := len(segs) - 1; i >= 0 && !found; i-- {
		path := filepath.Join(d.dir, segName(segs[i]))
		ci, oi, ei, rerr := readSegment(path)
		if rerr != nil {
			slog.Warn("storage: skipping corrupt segment", "path", path, "err", rerr)
			continue
		}
		c, o, epoch, found = ci, oi, ei, true
	}
	if !found {
		return nil, false, fmt.Errorf("storage: no intact segment in %s (%d candidates, all corrupt)", d.dir, len(segs))
	}

	cur, err := d.replayLocked(ctx, c, epoch, wals)
	if err != nil {
		return nil, false, err
	}

	// Fresh WAL at the recovered epoch. Older logs stay on disk until a
	// checkpoint's retention pass proves them redundant; any file
	// already named for this epoch holds no unreplayed intact record
	// (one would have advanced cur past it), so truncating is safe.
	w, err := createWAL(d.dir, cur)
	if err != nil {
		return nil, false, err
	}
	d.wal = w
	d.segs = segs
	d.sinceCheckpoint = 0
	return &state.Snapshot{Corpus: c, Ontology: o, Epoch: cur}, true, nil
}

// replayLocked replays every WAL in base order onto c, starting from
// segment epoch base, and returns the final epoch. Each record extends
// c's index incrementally, exactly as its group commit did, so the
// segment's documents are never re-tokenized. Records at or below the
// current epoch are already inside the segment and skip; a record
// further than one ahead is a gap.
func (d *Disk) replayLocked(ctx context.Context, c *corpus.Corpus, base uint64, wals []uint64) (uint64, error) {
	_, span := d.opts.Obs.StartSpan(ctx, ReplaySpan)
	defer span.End()
	cur := base
	for _, wb := range wals {
		path := filepath.Join(d.dir, walName(wb))
		if _, _, err := replayWAL(path, func(epoch uint64, docs []corpus.Document) error {
			switch {
			case epoch <= cur:
				return nil // already durable in the segment we loaded
			case epoch == cur+1:
				c.AppendBuild(docs)
				cur++
				return nil
			default:
				return fmt.Errorf("storage: wal %s: record for epoch %d but store is at %d — acknowledged records are missing", path, epoch, cur)
			}
		}); err != nil {
			return 0, err
		}
	}
	d.replayed.Add(float64(cur - base))
	return cur, nil
}

// BeforePublish implements state.Durable: make next durable before
// the store swaps it in. An ingestion delta becomes one fsynced WAL
// record; everything else (enrichment commits) becomes a full
// segment. Either way, when this returns nil the bytes are on disk.
func (d *Disk) BeforePublish(next *state.Snapshot, delta *state.Delta) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.wal == nil {
		return errors.New("storage: disk backend has no active WAL (Recover or Checkpoint first)")
	}
	if delta != nil && len(delta.Docs) > 0 {
		start := obs.Now()
		n, err := d.wal.append(next.Epoch, delta.Docs)
		if err != nil {
			return err
		}
		d.fsyncs.Inc()
		d.fsyncSecs.Observe(obs.Since(start).Seconds())
		d.walRecords.Inc()
		d.walDocs.Add(float64(len(delta.Docs)))
		d.walBytes.Add(float64(n))
		d.sinceCheckpoint++
		if d.opts.CheckpointEvery > 0 && d.sinceCheckpoint >= d.opts.CheckpointEvery {
			// The record above is already durable, so a failed periodic
			// checkpoint must not abort the publish — keep the counter
			// high and retry on the next append.
			if err := d.checkpointLocked(next); err != nil {
				slog.Warn("storage: periodic checkpoint failed; will retry", "epoch", next.Epoch, "err", err)
			}
		}
		return nil
	}
	return d.checkpointLocked(next)
}

// Checkpoint durably persists snap as a full segment now, rotates the
// WAL and applies retention. Used to seed a cold data directory and to
// bound the next boot's replay at shutdown.
func (d *Disk) Checkpoint(snap *state.Snapshot) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.checkpointLocked(snap)
}

// checkpointLocked writes the segment (the durability point — its
// error is the caller's error), then best-effort rotates the WAL and
// applies retention: those can fail without losing anything, so they
// warn instead of failing an already-durable publish.
func (d *Disk) checkpointLocked(snap *state.Snapshot) error {
	start := obs.Now()
	size, err := writeSegment(d.dir, snap.Epoch, snap.Corpus, snap.Ontology)
	if err != nil {
		return err
	}
	d.fsyncs.Inc()
	d.fsyncSecs.Observe(obs.Since(start).Seconds())
	d.segsTotal.Inc()
	d.segBytes.Set(float64(size))
	d.insertSegLocked(snap.Epoch)
	d.sinceCheckpoint = 0

	w, err := createWAL(d.dir, snap.Epoch)
	if err != nil {
		// The old WAL keeps working: its base is below the new segment,
		// so replay still reconstructs every epoch.
		slog.Warn("storage: wal rotation failed; continuing on previous wal", "epoch", snap.Epoch, "err", err)
	} else {
		if d.wal != nil {
			if cerr := d.wal.close(); cerr != nil {
				slog.Warn("storage: closing rotated wal", "err", cerr)
			}
		}
		d.wal = w
	}
	if err := d.pruneLocked(); err != nil {
		slog.Warn("storage: retention prune failed", "err", err)
	}
	return nil
}

// insertSegLocked records epoch in the sorted retained-segment list.
func (d *Disk) insertSegLocked(epoch uint64) {
	i := sort.Search(len(d.segs), func(i int) bool { return d.segs[i] >= epoch })
	if i < len(d.segs) && d.segs[i] == epoch {
		return
	}
	d.segs = append(d.segs, 0)
	copy(d.segs[i+1:], d.segs[i:])
	d.segs[i] = epoch
}

// pruneLocked applies retention: keep the newest Retain segments and
// drop WAL files made redundant by the oldest retained segment.
func (d *Disk) pruneLocked() error {
	if d.opts.Retain > 0 && len(d.segs) > d.opts.Retain {
		drop := d.segs[:len(d.segs)-d.opts.Retain]
		d.segs = append([]uint64(nil), d.segs[len(d.segs)-d.opts.Retain:]...)
		for _, e := range drop {
			if err := removeIfExists(filepath.Join(d.dir, segName(e))); err != nil {
				return err
			}
		}
	}
	if len(d.segs) > 0 {
		oldest := d.segs[0]
		wals, err := listWALs(d.dir)
		if err != nil {
			return err
		}
		// The log covering the oldest retained segment's replay window is
		// the newest one based at or below it — rotation can fail, so that
		// base may sit strictly below oldest. Only logs older than *that*
		// are redundant; deleting everything below oldest could orphan the
		// segment's tail.
		var cut uint64
		covered := false
		for _, wb := range wals {
			if wb <= oldest {
				cut, covered = wb, true
			}
		}
		if covered {
			for _, wb := range wals {
				if wb < cut && (d.wal == nil || wb != d.wal.base) {
					if err := removeIfExists(filepath.Join(d.dir, walName(wb))); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// removeIfExists deletes path, tolerating its absence.
func removeIfExists(path string) error {
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("storage: remove %s: %w", path, err)
	}
	return nil
}

// Close releases the WAL file handle. The backend must not be used
// after.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	err := d.wal.close()
	d.wal = nil
	return err
}
