package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
)

func TestReaderRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	want := [][]byte{[]byte("one"), []byte("two two"), bytes.Repeat([]byte{0xCD}, 2048)}
	appendAll(t, path, Options{Policy: SyncNever}, want...)

	r, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range want {
		p, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("Next #%d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(p, w) {
			t.Fatalf("record %d = %q, want %q", i, p, w)
		}
		if r.Records() != i+1 {
			t.Fatalf("Records=%d after record %d", r.Records(), i)
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next past end: ok=%v err=%v, want ok=false err=nil", ok, err)
	}
	st, _ := os.Stat(path)
	if r.Offset() != st.Size() {
		t.Fatalf("Offset=%d, file size=%d", r.Offset(), st.Size())
	}
}

// TestReaderSeesLiveAppends is the property the replication feed depends
// on: records appended after the Reader was opened (and after it already
// reported end-of-log) become visible on the next poll.
func TestReaderSeesLiveAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, err := Open(path, Options{Policy: SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Commit([]byte("first")); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, ok, err := r.Next(); err != nil || !ok || string(p) != "first" {
		t.Fatalf("Next = %q, %v, %v", p, ok, err)
	}
	if _, ok, _ := r.Next(); ok {
		t.Fatal("Next reported a record at the live tail")
	}
	if _, err := l.Commit([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if p, ok, err := r.Next(); err != nil || !ok || string(p) != "second" {
		t.Fatalf("Next after live append = %q, %v, %v", p, ok, err)
	}
}

// TestReaderStopsAtTornTail mirrors Scan's torn-tail behavior: a frame
// that is incomplete or fails its CRC is "no record", not an error and
// never a payload.
func TestReaderStopsAtTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	appendAll(t, path, Options{Policy: SyncNever}, []byte("intact"), []byte("to-be-torn"))

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize + 3} {
		// Re-truncate inside the second frame at several byte offsets.
		firstEnd := frameHeaderSize + len("intact")
		if err := os.WriteFile(path, data[:firstEnd+cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(vfs.OS, path)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok, err := r.Next(); err != nil || !ok || string(p) != "intact" {
			t.Fatalf("cut=%d: first Next = %q, %v, %v", cut, p, ok, err)
		}
		if _, ok, err := r.Next(); ok || err != nil {
			t.Fatalf("cut=%d: Next on torn frame: ok=%v err=%v", cut, ok, err)
		}
		r.Close()
	}

	// Corrupt the second frame's payload in place: CRC must reject it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok, err := r.Next(); !ok || err != nil {
		t.Fatalf("first Next: ok=%v err=%v", ok, err)
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next on corrupt frame: ok=%v err=%v", ok, err)
	}
}

func TestReaderSkip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	appendAll(t, path, Options{Policy: SyncNever}, []byte("a"), []byte("b"), []byte("c"))

	r, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Skip(2); err != nil {
		t.Fatal(err)
	}
	if p, ok, err := r.Next(); err != nil || !ok || string(p) != "c" {
		t.Fatalf("Next after Skip(2) = %q, %v, %v", p, ok, err)
	}

	r2, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if err := r2.Skip(4); err == nil {
		t.Fatal("Skip past end of log succeeded")
	}
}

// readAts counts the ReadAt operations ffs has seen.
func readAts(ffs *vfs.FaultFS) int {
	n := 0
	for _, line := range ffs.Trace() {
		if strings.HasPrefix(line, vfs.OpReadAt.String()+" ") {
			n++
		}
	}
	return n
}

// TestReaderFramesStraddleBlocks: frames that cross the end of a
// read-ahead block, and one larger than a block, decode intact, and the
// file is read in about one ReadAt per block rather than two per record.
func TestReaderFramesStraddleBlocks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	var want [][]byte
	for i := 0; i < 150; i++ {
		// 1000-byte payloads: frame boundaries fall at every offset
		// class, so several frames straddle a 64 KiB block end.
		want = append(want, bytes.Repeat([]byte{byte(i)}, 1000))
	}
	want = append(want, bytes.Repeat([]byte{0xAB}, 3*readAhead+17), []byte("after"))
	appendAll(t, path, Options{Policy: SyncNever}, want...)

	ffs := vfs.NewFaultFS(vfs.OS)
	r, err := OpenReader(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, w := range want {
		p, ok, err := r.Next()
		if err != nil || !ok {
			t.Fatalf("Next #%d: ok=%v err=%v", i, ok, err)
		}
		if !bytes.Equal(p, w) {
			t.Fatalf("record %d: %d bytes, want %d", i, len(p), len(w))
		}
	}
	if _, ok, err := r.Next(); ok || err != nil {
		t.Fatalf("Next past end: ok=%v err=%v", ok, err)
	}
	// 150 KB of small frames (3 blocks), the large frame (1 read), the
	// last frame (1 read).
	if reads := readAts(ffs); reads > 6 {
		t.Fatalf("%d reads for %d records, want at most 6", reads, len(want))
	}
}

// TestReaderRefreshRereadsRewrittenTail: bytes read ahead past the records
// a caller consumed are served from the block until Refresh; after it the
// next record is read from the file again, so a frame truncated and
// rewritten in place (a writer's recovery) is seen as rewritten.
func TestReaderRefreshRereadsRewrittenTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	appendAll(t, path, Options{Policy: SyncNever}, []byte("first"), []byte("old-2"))
	r, err := OpenReader(vfs.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if p, ok, err := r.Next(); err != nil || !ok || string(p) != "first" {
		t.Fatalf("Next = %q, %v, %v", p, ok, err)
	}
	if err := os.Truncate(path, r.Offset()); err != nil {
		t.Fatal(err)
	}
	appendAll(t, path, Options{Policy: SyncNever}, []byte("new-2"))
	r.Refresh()
	if p, ok, err := r.Next(); err != nil || !ok || string(p) != "new-2" {
		t.Fatalf("Next after Refresh = %q, %v, %v", p, ok, err)
	}
}

// TestReaderSurfacesReadError: a failing read is an error from Next, not
// "no record yet", whether it hits the first block or a refill.
func TestReaderSurfacesReadError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	big := bytes.Repeat([]byte{1}, readAhead)
	appendAll(t, path, Options{Policy: SyncNever}, []byte("a"), big, []byte("b"))
	for at, okBefore := range []int{0, 1} {
		ffs := vfs.NewFaultFS(vfs.OS)
		ffs.AddFault(vfs.Fault{Op: vfs.OpReadAt, At: at, Err: errors.New("injected EIO")})
		r, err := OpenReader(ffs, path)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < okBefore; i++ {
			if _, ok, err := r.Next(); !ok || err != nil {
				t.Fatalf("fault at read %d: record %d: ok=%v err=%v", at, i, ok, err)
			}
		}
		if _, ok, err := r.Next(); ok || err == nil || !strings.Contains(err.Error(), "injected EIO") {
			t.Fatalf("fault at read %d: Next = ok=%v err=%v, want the injected error", at, ok, err)
		}
		r.Close()
	}
}
