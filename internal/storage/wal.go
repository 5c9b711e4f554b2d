package storage

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"bioenrich/internal/corpus"
	"bioenrich/internal/storage/fsio"
)

// WAL file layout:
//
//	wal-<base epoch, 20 digits>.log
//	┌──────────────────────────────┐
//	│ magic "bioenrich-wal-v1\n"   │  17 bytes
//	├──────────────────────────────┤
//	│ record: len u32 | crc u32 |  │  len = len(payload), big-endian
//	│         payload (gob)        │  crc = CRC-32 (IEEE) of payload
//	│ record ...                   │
//	└──────────────────────────────┘
//
// payload gob-encodes a walRecord{Epoch, Docs}: the documents one
// state.Store mutation appended, stamped with the epoch that mutation
// committed as. With group-committed ingestion (internal/batch) one
// mutation — and so one record and one fsync — carries every document
// that concurrent requests contributed to the group; replay does not
// care how many callers a record coalesced, only that epochs are
// contiguous. <base epoch> is the epoch of the segment the log
// extends: replaying the log on top of that segment, record by
// record, reconstructs every subsequent epoch.
//
// The framing makes torn tails detectable: a crash mid-append leaves
// a record whose length header, payload or CRC is short or wrong, and
// replay stops at the last intact record — exactly the durability the
// fsync-before-publish contract promises (everything acked is intact;
// the torn tail was never acked).

const (
	walMagic = "bioenrich-wal-v1\n"
	// walMaxRecord caps a single record's declared payload length (64
	// MiB). A corrupt length header would otherwise make replay try to
	// allocate gigabytes before the CRC could refute it.
	walMaxRecord = 64 << 20
)

// walRecord is the gob payload of one frame.
type walRecord struct {
	Epoch uint64
	Docs  []corpus.Document
}

// errTornRecord marks the benign end of a WAL: a frame that was being
// appended when the process died. Replay stops there; everything
// before it is intact.
var errTornRecord = errors.New("storage: torn wal record")

// wal is an append handle on one write-ahead log file.
type wal struct {
	f    *os.File
	path string
	base uint64 // epoch of the segment this log extends
}

// walName renders the file name for a log extending segment base.
func walName(base uint64) string {
	return fmt.Sprintf("wal-%020d.log", base)
}

// walBase parses the base epoch out of a WAL file name, reporting
// whether the name is one of ours.
func walBase(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// createWAL starts a fresh log for segment base in dir, durably: the
// magic header is written and fsynced, and the directory entry synced,
// before the handle is returned.
func createWAL(dir string, base uint64) (*wal, error) {
	path := filepath.Join(dir, walName(base))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create wal %s: %w", path, err)
	}
	if _, err := f.WriteString(walMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: write wal header %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: sync wal header %s: %w", path, err)
	}
	if err := fsio.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &wal{f: f, path: path, base: base}, nil
}

// append frames, writes and fsyncs one record: the record is durable
// once append returns nil, which is the property state.Durable's
// BeforePublish relies on. It returns the framed size in bytes.
func (w *wal) append(epoch uint64, docs []corpus.Document) (int, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&walRecord{Epoch: epoch, Docs: docs}); err != nil {
		return 0, fmt.Errorf("storage: encode wal record: %w", err)
	}
	if payload.Len() > walMaxRecord {
		return 0, fmt.Errorf("storage: wal record of %d bytes exceeds %d-byte cap", payload.Len(), walMaxRecord)
	}
	frame := make([]byte, 8+payload.Len())
	binary.BigEndian.PutUint32(frame[0:4], uint32(payload.Len()))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	copy(frame[8:], payload.Bytes())
	if _, err := w.f.Write(frame); err != nil {
		return 0, fmt.Errorf("storage: append wal record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("storage: fsync wal: %w", err)
	}
	return len(frame), nil
}

func (w *wal) close() error {
	if w == nil || w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// replayWAL streams the records of one log file through apply in
// order. It returns the byte offset of the end of the last intact
// record — the length of the prefix a reopen would have to keep — and
// the number of records applied. A torn tail (short frame, bad CRC, undecodable
// payload) ends replay silently; any earlier error from apply aborts.
func replayWAL(path string, apply func(epoch uint64, docs []corpus.Document) error) (validLen int64, records int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("storage: open wal %s: %w", path, err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		// Shorter than the header: the file was torn during creation.
		return 0, 0, fmt.Errorf("%w: %s truncated before header", errTornRecord, path)
	}
	if string(magic) != walMagic {
		return 0, 0, fmt.Errorf("storage: %s is not a bioenrich wal (bad magic)", path)
	}
	offset := int64(len(walMagic))
	for {
		rec, frameLen, rerr := readWALRecord(br)
		if rerr != nil {
			if errors.Is(rerr, io.EOF) || errors.Is(rerr, errTornRecord) {
				return offset, records, nil // clean end or torn tail: stop here
			}
			return offset, records, rerr
		}
		if err := apply(rec.Epoch, rec.Docs); err != nil {
			return offset, records, err
		}
		offset += frameLen
		records++
	}
}

// readWALRecord decodes one frame. io.EOF means a clean end exactly on
// a record boundary; errTornRecord covers every way a partially
// written frame can look.
func readWALRecord(br *bufio.Reader) (walRecord, int64, error) {
	var rec walRecord
	header := make([]byte, 8)
	if _, err := io.ReadFull(br, header); err != nil {
		if errors.Is(err, io.EOF) {
			return rec, 0, io.EOF
		}
		return rec, 0, fmt.Errorf("%w: short frame header", errTornRecord)
	}
	length := binary.BigEndian.Uint32(header[0:4])
	sum := binary.BigEndian.Uint32(header[4:8])
	if length > walMaxRecord {
		return rec, 0, fmt.Errorf("%w: implausible record length %d", errTornRecord, length)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(br, payload); err != nil {
		return rec, 0, fmt.Errorf("%w: short payload", errTornRecord)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, fmt.Errorf("%w: crc mismatch", errTornRecord)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return rec, 0, fmt.Errorf("%w: payload does not decode: %v", errTornRecord, err)
	}
	return rec, int64(8 + length), nil
}

// listWALs returns the base epochs of every WAL file in dir, sorted
// ascending.
func listWALs(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read data dir %s: %w", dir, err)
	}
	var bases []uint64
	for _, e := range entries {
		if b, ok := walBase(e.Name()); ok && !e.IsDir() {
			bases = append(bases, b)
		}
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	return bases, nil
}
