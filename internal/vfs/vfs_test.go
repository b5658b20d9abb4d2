package vfs

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.txt")

	f, err := OS.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// OSFS files must be bare *os.File: the hot path relies on the
	// passthrough allocating no wrapper.
	if _, ok := f.(*os.File); !ok {
		t.Fatalf("OS.OpenFile returned %T, want *os.File", f)
	}

	b, err := OS.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	dst := filepath.Join(dir, "b.txt")
	if err := OS.Rename(path, dst); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	ents, err := OS.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b.txt" {
		t.Fatalf("ReadDir = %v, %v", ents, err)
	}
	if err := OS.Remove(dst); err != nil {
		t.Fatalf("Remove: %v", err)
	}
}

func TestFaultFSInjectsAtNthOp(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)

	// Dry run: count the ops of open+write+sync+close.
	run := func(ffs *FaultFS) error {
		f, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("data")); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := run(ffs); err != nil {
		t.Fatalf("dry run: %v", err)
	}
	total := ffs.Ops()
	if total != 4 {
		t.Fatalf("op count = %d, want 4 (open, write, sync, close)", total)
	}

	// Injecting ENOSPC at each index fails the corresponding call.
	for at := 0; at < total; at++ {
		ffs := NewFaultFS(OS)
		rule := ffs.AddFault(Fault{At: at, Err: syscall.ENOSPC})
		err := run(ffs)
		if err == nil {
			t.Fatalf("at=%d: fault did not surface", at)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("at=%d: err = %v, not ENOSPC", at, err)
		}
		if !ffs.Fired(rule) {
			t.Fatalf("at=%d: rule did not record firing", at)
		}
	}
}

func TestFaultFSPathMatch(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.AddFault(Fault{Op: OpSync, Path: "wal-", At: -1, Err: syscall.EIO})

	// A file whose name does not contain "wal-" syncs fine.
	ok, err := ffs.OpenFile(filepath.Join(dir, "segment-0001.seg"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Sync(); err != nil {
		t.Fatalf("segment sync should pass: %v", err)
	}
	ok.Close()

	// Every sync on a wal- file fails with EIO.
	w, err := ffs.OpenFile(filepath.Join(dir, "wal-0001.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Sync(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("wal sync #%d = %v, want EIO", i, err)
		}
	}
}

func TestFaultFSShortWrite(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.AddFault(Fault{Op: OpWrite, At: 0, ShortWrite: 3, Err: syscall.ENOSPC})

	f, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short write = (%d, %v), want (3, ENOSPC)", n, err)
	}
	f.Close()

	// The accepted prefix must actually be on disk: that is the torn
	// state recovery has to cope with.
	b, err := os.ReadFile(filepath.Join(dir, "x"))
	if err != nil || string(b) != "abc" {
		t.Fatalf("on-disk prefix = %q, %v, want \"abc\"", b, err)
	}
}

func TestFaultFSShortWriteNoErr(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	ffs.AddFault(Fault{Op: OpWrite, At: 0, ShortWrite: 2})

	f, err := ffs.OpenFile(filepath.Join(dir, "x"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n, err := f.Write([]byte("abcdef"))
	if n != 2 || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write = (%d, %v), want (2, ErrShortWrite)", n, err)
	}
}

func TestFaultFSTrace(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(OS)
	f, err := ffs.OpenFile(filepath.Join(dir, "t"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("z"))
	f.Close()
	tr := ffs.Trace()
	if len(tr) != 3 {
		t.Fatalf("trace = %v, want 3 entries", tr)
	}
	for i, want := range []string{"openfile", "write", "close"} {
		if !strings.HasPrefix(tr[i], want+" ") {
			t.Fatalf("trace[%d] = %q, want prefix %q", i, tr[i], want)
		}
	}
}

func TestFaultFSErrnoPreserved(t *testing.T) {
	ffs := NewFaultFS(OS)
	ffs.AddFault(Fault{Op: OpRename, At: -1, Err: syscall.ENOSPC})
	err := ffs.Rename("a", "b")
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC reachable via errors.Is", err)
	}
	var pe *os.PathError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *fs.PathError wrapping for path context", err)
	}
	if pe.Path != "b" {
		t.Fatalf("PathError.Path = %q, want destination path", pe.Path)
	}
}

// TestWriteFileAtomic: a fault at any step before the rename leaves the
// previous contents in place and no temp file behind; the write then
// succeeds once the fault clears.
func TestWriteFileAtomic(t *testing.T) {
	for _, op := range []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename} {
		t.Run(op.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "x.meta")
			if err := WriteFileAtomic(OS, path, []byte("old\n")); err != nil {
				t.Fatal(err)
			}
			ffs := NewFaultFS(OS)
			rule := ffs.AddFault(Fault{Op: op, At: 0, Err: syscall.EIO})
			if err := WriteFileAtomic(ffs, path, []byte("new\n")); !errors.Is(err, syscall.EIO) {
				t.Fatalf("write with a failing %s: %v, want EIO", op, err)
			}
			if !ffs.Fired(rule) {
				t.Fatalf("%s fault never fired", op)
			}
			if got, _ := os.ReadFile(path); string(got) != "old\n" {
				t.Errorf("after a failed %s: %q, want the old contents", op, got)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Errorf("after a failed %s: %d entries left in the dir, want 1", op, len(entries))
			}
			if err := WriteFileAtomic(ffs, path, []byte("new\n")); err != nil {
				t.Fatal(err)
			}
			if got, _ := os.ReadFile(path); string(got) != "new\n" {
				t.Errorf("after the retry: %q", got)
			}
		})
	}
}
