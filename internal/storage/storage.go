// Package storage is the persistence layer behind the snapshot store
// (internal/state). Disk makes the epoch/CAS design durable: every
// published snapshot can be written as an immutable, checksummed
// segment file keyed by epoch, document ingestion appends a CRC-framed
// record to a write-ahead log and fsyncs *before* the in-memory
// pointer swap, and boot loads the newest valid segment then replays
// the WAL tail to land on the exact pre-crash epoch.
//
// The store consults the disk through its state.Durable hook
// (BeforePublish), which runs under the writer mutex before readers
// can observe the new snapshot — so a commit is not durable until its
// bytes are fsynced, and a crash can only ever lose mutations that
// were never acknowledged. A store with no hook installed is
// in-memory only: nothing outlives the process.
package storage

// Metric names the disk backend registers, exported so the server's
// exposition tests can pin them.
const (
	// FsyncMetric counts fsync calls on WAL and segment writes.
	FsyncMetric = "bioenrich_storage_fsync_total"
	// FsyncSecondsMetric is the fsync latency histogram.
	FsyncSecondsMetric = "bioenrich_storage_fsync_seconds"
	// WALRecordsMetric counts records appended to the WAL. With
	// group-committed ingestion one record holds a whole group, so
	// this counts commits, not documents — WALDocsMetric counts those.
	WALRecordsMetric = "bioenrich_storage_wal_records_total"
	// WALDocsMetric counts documents carried by appended WAL records.
	// WALDocsMetric / WALRecordsMetric is the effective group-commit
	// coalescing factor as the disk sees it.
	WALDocsMetric = "bioenrich_storage_wal_docs_total"
	// WALBytesMetric counts framed bytes appended to the WAL.
	WALBytesMetric = "bioenrich_storage_wal_bytes_total"
	// SegmentsWrittenMetric counts full-segment checkpoints.
	SegmentsWrittenMetric = "bioenrich_storage_segments_written_total"
	// SegmentBytesMetric gauges the size of the newest segment.
	SegmentBytesMetric = "bioenrich_storage_segment_bytes"
	// ReplayedRecordsMetric counts WAL records replayed at boot.
	ReplayedRecordsMetric = "bioenrich_storage_replayed_records_total"
	// RecoverSpan and ReplaySpan name the boot-time spans the disk
	// backend opens (surfaced through obs.SpanMetric).
	RecoverSpan = "storage.recover"
	ReplaySpan  = "storage.wal_replay"
)
