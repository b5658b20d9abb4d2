package wal

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/vfs"
)

// TestPartialFrameWriteEveryByteOffset is the mid-frame torn-write
// property test: a frame write truncated at EVERY byte offset — inside
// the header, on the header/payload boundary, inside the payload — must
// leave a log that Open truncates back to exactly the acknowledged
// records, never an error, never a resurrected partial record.
func TestPartialFrameWriteEveryByteOffset(t *testing.T) {
	acked := []byte("acknowledged-record")
	torn := []byte("torn-record-payload")
	frameLen := frameHeaderSize + len(torn)
	for cut := 0; cut < frameLen; cut++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-0000000000000001.log")
		ffs := vfs.NewFaultFS(vfs.OS)
		l, err := Open(path, Options{FS: ffs}, nil)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		if _, err := l.Commit(acked); err != nil {
			t.Fatalf("cut=%d: acked append: %v", cut, err)
		}
		// Commit sends the whole frame in one write: cut it there.
		ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, At: 0, ShortWrite: cut, Err: syscall.ENOSPC})
		if _, err := l.Commit(torn); err == nil {
			t.Fatalf("cut=%d: torn append reported success", cut)
		} else if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("cut=%d: torn append error %v loses the errno", cut, err)
		}
		l.Close() // sticky error expected; only termination matters

		// Reopen through the real OS: recovery must see exactly the
		// acknowledged record and truncate the torn bytes away.
		l2, err := Open(path, Options{}, nil)
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		if l2.Records() != 1 {
			t.Fatalf("cut=%d: reopened with %d records, want 1", cut, l2.Records())
		}
		wantSize := int64(frameHeaderSize + len(acked))
		if l2.Size() != wantSize {
			t.Fatalf("cut=%d: size %d after truncation, want %d", cut, l2.Size(), wantSize)
		}
		var got [][]byte
		if _, _, torn2, err := ScanFS(vfs.OS, path, func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil || torn2 {
			t.Fatalf("cut=%d: rescan = torn=%v err=%v", cut, torn2, err)
		}
		if len(got) != 1 || !bytes.Equal(got[0], acked) {
			t.Fatalf("cut=%d: replay = %q", cut, got)
		}
		// And the truncated log accepts appends cleanly.
		if _, err := l2.Commit([]byte("after")); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		l2.Close()
	}
}

// TestOpenPrefixDropsTail covers the heal primitive directly: OpenPrefix
// must leave exactly n records, fsync, and position the log so the next
// append lands on the new boundary; at or past the record count it opens
// the log unchanged.
func TestOpenPrefixDropsTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000000001.log")
	l, err := Open(path, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{[]byte("one"), []byte("twotwo"), []byte("three")}
	for _, p := range payloads {
		if _, err := l.Commit(p); err != nil {
			t.Fatal(err)
		}
	}
	full := l.Size()
	l.Close()
	for _, n := range []int{3, 5} {
		l, err := OpenPrefix(path, Options{}, n)
		if err != nil {
			t.Fatal(err)
		}
		if l.Records() != 3 || l.Size() != full {
			t.Fatalf("OpenPrefix(%d) of 3 records: records=%d size=%d, want 3 and %d", n, l.Records(), l.Size(), full)
		}
		l.Close()
	}

	ffs := vfs.NewFaultFS(vfs.OS)
	l, err = OpenPrefix(path, Options{FS: ffs}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if l.Records() != 1 || l.Size() != int64(frameHeaderSize+len(payloads[0])) {
		t.Fatalf("after OpenPrefix(1): records=%d size=%d", l.Records(), l.Size())
	}
	// The whole (small) file is read in one block, only its first record
	// is decoded, and the truncation is fsynced once.
	ops := map[string]int{}
	for _, line := range ffs.Trace() {
		ops[strings.Fields(line)[0]]++
	}
	if ops[vfs.OpReadAt.String()] != 1 || ops[vfs.OpSync.String()] != 1 {
		t.Fatalf("OpenPrefix(1): %d reads and %d syncs, want 1 and 1: %v",
			ops[vfs.OpReadAt.String()], ops[vfs.OpSync.String()], ffs.Trace())
	}
	if _, err := l.Commit([]byte("replacement")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	var got [][]byte
	n, _, torn, err := ScanFS(vfs.OS, path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || torn || n != 2 {
		t.Fatalf("scan = n=%d torn=%v err=%v", n, torn, err)
	}
	if !bytes.Equal(got[0], payloads[0]) || !bytes.Equal(got[1], []byte("replacement")) {
		t.Fatalf("replay = %q", got)
	}

	if _, err := OpenPrefix(path, Options{}, -1); err == nil {
		t.Fatal("negative prefix accepted")
	}
}

// TestWALErrAccessor: the sticky error must be observable without
// attempting another append.
func TestWALErrAccessor(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	l, err := Open(filepath.Join(dir, "wal-0000000000000001.log"), Options{FS: ffs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.Err() != nil {
		t.Fatalf("fresh log Err = %v", l.Err())
	}
	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, At: -1, Err: syscall.EIO})
	if _, err := l.Commit([]byte("x")); err == nil {
		t.Fatal("append with EIO succeeded")
	}
	if !errors.Is(l.Err(), syscall.EIO) {
		t.Fatalf("Err = %v, want sticky EIO", l.Err())
	}
}
