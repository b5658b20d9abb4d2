package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/vfs"
)

// appendAll writes the given payloads and closes the log.
func appendAll(t *testing.T, path string, opt Options, payloads ...[]byte) {
	t.Helper()
	l, err := Open(path, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if _, err := l.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// scanAll replays the log and returns the payload copies plus scan info.
func scanAll(t *testing.T, path string) (payloads [][]byte, records int, valid int64, torn bool) {
	t.Helper()
	records, valid, torn, err := ScanFS(vfs.OS, path, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return payloads, records, valid, torn
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := [][]byte{[]byte("one"), []byte("two two"), bytes.Repeat([]byte{0xAB}, 4096), {0}}
	appendAll(t, path, Options{Policy: SyncAlways}, want...)

	got, records, valid, torn := scanAll(t, path)
	if records != len(want) || torn {
		t.Fatalf("records=%d torn=%v, want %d records, no torn tail", records, torn, len(want))
	}
	st, _ := os.Stat(path)
	if valid != st.Size() {
		t.Fatalf("valid=%d, file size=%d", valid, st.Size())
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestReopenAppendsAfterExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	appendAll(t, path, Options{}, []byte("a"), []byte("b"))

	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 2 {
		t.Fatalf("Records=%d, want 2", l.Records())
	}
	if _, err := l.Commit([]byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, records, _, torn := scanAll(t, path)
	if records != 3 || torn {
		t.Fatalf("records=%d torn=%v after reopen+append", records, torn)
	}
	if !bytes.Equal(got[2], []byte("c")) {
		t.Fatalf("last record = %q, want c", got[2])
	}
}

// TestTornTailTruncatedOnOpen simulates a crash mid-write at every byte
// boundary of the final frame: the valid prefix must survive, the torn
// tail must be dropped, and a subsequent append must land cleanly.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	appendAll(t, ref, Options{}, []byte("first"), []byte("second record"))
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := int64(frameHeaderSize + len("first"))

	for cut := firstLen; cut < int64(len(full)); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut%d.log", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, Options{}, nil)
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		if l.Records() != 1 || l.Size() != firstLen {
			t.Fatalf("cut=%d: records=%d size=%d, want 1 record of %d bytes", cut, l.Records(), l.Size(), firstLen)
		}
		if _, err := l.Commit([]byte("after crash")); err != nil {
			t.Fatalf("cut=%d: append: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		got, records, _, torn := scanAll(t, path)
		if records != 2 || torn {
			t.Fatalf("cut=%d: records=%d torn=%v after recovery append", cut, records, torn)
		}
		if !bytes.Equal(got[0], []byte("first")) || !bytes.Equal(got[1], []byte("after crash")) {
			t.Fatalf("cut=%d: wrong payloads %q", cut, got)
		}
	}
}

// TestBitFlipStopsScan flips each byte of the middle frame in turn; the
// scan must stop at or before that frame, never panic, and never yield a
// corrupted payload.
func TestBitFlipStopsScan(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.log")
	appendAll(t, ref, Options{}, []byte("aaaa"), []byte("bbbb"), []byte("cccc"))
	full, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	frame := int64(frameHeaderSize + 4)
	path := filepath.Join(dir, "flip.log")
	for off := frame; off < 2*frame; off++ {
		flipped := append([]byte(nil), full...)
		flipped[off] ^= 0x40
		if err := os.WriteFile(path, flipped, 0o644); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		records, _, _, err := ScanFS(vfs.OS, path, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("off=%d: %v", off, err)
		}
		if records > 1 {
			// The flipped byte lives entirely inside frame 2; only frame 1
			// may survive. (A flip that leaves the CRC valid would be a
			// CRC32C collision — not possible from a single bit flip.)
			t.Fatalf("off=%d: %d records survived a corrupt middle frame", off, records)
		}
		if records == 1 && !bytes.Equal(got[0], []byte("aaaa")) {
			t.Fatalf("off=%d: surviving record corrupted: %q", off, got[0])
		}
	}
}

func TestEmptyAndMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	if _, _, _, err := ScanFS(vfs.OS, path, nil); err == nil {
		t.Fatal("Scan of a missing file must error")
	}
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 || l.Records() != 0 {
		t.Fatalf("fresh log: size=%d records=%d", l.Size(), l.Records())
	}
	if _, err := l.Commit(nil); err == nil {
		t.Fatal("empty record must be rejected")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, records, valid, torn := scanAll(t, path); records != 0 || valid != 0 || torn {
		t.Fatalf("empty log scan: records=%d valid=%d torn=%v", records, valid, torn)
	}
}

func TestSyncIntervalFlushesInBackground(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Policy: SyncInterval, Interval: 5 * time.Millisecond}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("background")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		dirty := l.dirty
		l.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sync never flushed the dirty append")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit([]byte("x")); err == nil {
		t.Fatal("append to a closed log must error")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("sync of a closed log must error")
	}
}

func TestParsePolicyRoundTrip(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy must reject unknown names")
	}
}
