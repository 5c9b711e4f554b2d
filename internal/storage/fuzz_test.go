package storage

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"bioenrich/internal/corpus"
)

// walBytes builds a real WAL image with n records through the
// production writer, so the fuzz corpus starts from well-formed input.
func walBytes(f *testing.F, n int) []byte {
	f.Helper()
	dir := f.TempDir()
	w, err := createWAL(dir, 1)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := w.append(uint64(2+i), []corpus.Document{{ID: "d", Text: "retinal detachment"}}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzWALReplay feeds arbitrary byte streams to the WAL replayer. The
// replayer may reject a file (bad magic) or stop at a torn tail, but
// it must never panic, never report a validLen beyond the file, and —
// the crash-recovery invariant — replaying the intact prefix it
// reported must reproduce exactly the same records: a second recovery
// of the same bytes cannot see more or fewer acknowledged mutations.
func FuzzWALReplay(f *testing.F) {
	intact := walBytes(f, 3)
	f.Add(intact)
	f.Add(intact[:len(intact)-5]) // torn mid-record
	f.Add(intact[:len(walMagic)]) // header only, no records
	f.Add([]byte(walMagic))
	f.Add([]byte("not a wal at all"))
	f.Add([]byte{})
	// An implausible length header must be refused before allocation.
	huge := append([]byte(walMagic), make([]byte, 8)...)
	binary.BigEndian.PutUint32(huge[len(walMagic):], uint32(walMaxRecord+1))
	f.Add(huge)
	// Right length, wrong checksum.
	badcrc := append([]byte(walMagic), 0, 0, 0, 2, 0xde, 0xad, 0xbe, 0xef, 'x', 'y')
	f.Add(badcrc)
	// Valid frame whose payload is not a gob walRecord.
	junk := []byte("junk-payload")
	frame := make([]byte, 8+len(junk))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(junk)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(junk))
	copy(frame[8:], junk)
	f.Add(append([]byte(walMagic), frame...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		type rec struct {
			epoch uint64
			docs  int
		}
		var got []rec
		validLen, n, err := replayWAL(path, func(epoch uint64, docs []corpus.Document) error {
			got = append(got, rec{epoch, len(docs)})
			return nil
		})
		if err != nil {
			return // rejection is fine; panics are not
		}
		if n != len(got) {
			t.Fatalf("reported %d records, applied %d", n, len(got))
		}
		if validLen < int64(len(walMagic)) || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [header, %d]", validLen, len(data))
		}
		// Recovery idempotence: the intact prefix replays identically.
		if err := os.WriteFile(path, data[:validLen], 0o644); err != nil {
			t.Fatal(err)
		}
		var again []rec
		if _, m, err := replayWAL(path, func(epoch uint64, docs []corpus.Document) error {
			again = append(again, rec{epoch, len(docs)})
			return nil
		}); err != nil {
			t.Fatalf("replay of intact prefix failed: %v", err)
		} else if m != n {
			t.Fatalf("intact prefix replayed %d records, first pass %d", m, n)
		}
		for i := range got {
			if got[i] != again[i] {
				t.Fatalf("record %d diverged: %+v vs %+v", i, got[i], again[i])
			}
		}
	})
}
