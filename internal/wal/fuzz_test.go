package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

// FuzzScan feeds arbitrary bytes to the frame decoder: it must never
// panic, never report more payload bytes than the file holds, and the
// valid prefix it reports must itself rescan to the same records.
func FuzzScan(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// A well-formed single frame.
	payload := []byte("seed record")
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], frameCRC([4]byte(hdr[0:4]), payload))
	frame := append(hdr[:], payload...)
	f.Add(frame)
	f.Add(append(append([]byte(nil), frame...), frame...))
	// Truncated and bit-flipped variants.
	f.Add(frame[:len(frame)-3])
	flipped := append([]byte(nil), frame...)
	flipped[5] ^= 0x01
	f.Add(flipped)
	// Absurd length field.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var total int64
		records, valid, torn, err := ScanFS(vfs.OS, path, func(p []byte) error {
			total += int64(len(p))
			return nil
		})
		if err != nil {
			t.Fatalf("scan of arbitrary bytes must not error, got %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid=%d out of range [0,%d]", valid, len(data))
		}
		if total > valid {
			t.Fatalf("decoded %d payload bytes from a %d-byte valid prefix", total, valid)
		}
		if torn == (valid == int64(len(data))) && len(data) > 0 {
			// torn must be true iff a non-empty invalid tail follows.
			t.Fatalf("torn=%v but valid=%d of %d", torn, valid, len(data))
		}

		// Opening the same bytes must truncate to exactly the valid prefix
		// and then accept a new append.
		l, err := Open(path, Options{Policy: SyncNever}, nil)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if l.Size() != valid || l.Records() != records {
			t.Fatalf("open: size=%d records=%d, scan said %d/%d", l.Size(), l.Records(), valid, records)
		}
		if _, err := l.Commit([]byte("tail")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var last []byte
		records2, _, torn2, err := ScanFS(vfs.OS, path, func(p []byte) error {
			last = append(last[:0], p...)
			return nil
		})
		if err != nil || torn2 || records2 != records+1 || !bytes.Equal(last, []byte("tail")) {
			t.Fatalf("rescan after recovery append: records=%d torn=%v err=%v last=%q", records2, torn2, err, last)
		}
	})
}
