package server

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro"
	"repro/internal/vfs"
)

// TestDurableUploadFormatMetaFault: format.meta is what makes a durable
// upload visible to the next boot, so a failure at any step of writing it
// must fail the upload with 500. Acknowledging it would let the database
// vanish at the next restart.
func TestDurableUploadFormatMetaFault(t *testing.T) {
	for _, op := range []vfs.Op{vfs.OpWrite, vfs.OpSync, vfs.OpClose, vfs.OpRename} {
		t.Run(op.String(), func(t *testing.T) {
			ffs := vfs.NewFaultFS(vfs.OS)
			dir := t.TempDir()
			srv := mustNew(t, Config{DataDir: dir, Open: repro.OpenOptions{FS: ffs}})
			defer srv.Close()
			h := srv.Handler()
			rule := ffs.AddFault(vfs.Fault{Op: op, Path: formatMetaFile, At: -1, Err: syscall.EIO})
			rr := doJSON(t, h, "POST", "/v1/databases/ex?format=chars", example11)
			if rr.Code != http.StatusInternalServerError {
				t.Fatalf("upload with a failing %s of format.meta: %d %s, want 500", op, rr.Code, rr.Body)
			}
			if !ffs.Fired(rule) {
				t.Fatalf("the %s fault on format.meta never fired", op)
			}
			if rr := doJSON(t, h, "GET", "/v1/databases/ex/stats", ""); rr.Code != http.StatusNotFound {
				t.Errorf("failed upload is served: %d", rr.Code)
			}
		})
	}
}

// TestSidecarMetaWritesAreAtomic: format.meta and epoch.meta are written
// through the configured FS as temp file + fsync + rename + directory
// fsync, on upload and on the boot that reads them back.
func TestSidecarMetaWritesAreAtomic(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	dir := t.TempDir()
	srv := mustNew(t, Config{DataDir: dir, Open: repro.OpenOptions{FS: ffs}})
	upload(t, srv.Handler(), "ex", "chars", example11)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	trace := strings.Join(ffs.Trace(), "\n")
	dbDir := filepath.Join(dir, "ex")
	for _, file := range []string{formatMetaFile, EpochMetaFile} {
		path := filepath.Join(dbDir, file)
		for _, want := range []string{
			"createtemp " + dbDir,
			"sync " + path + ".tmp",
			"rename " + path,
			"syncdir " + dbDir,
		} {
			if !strings.Contains(trace, want) {
				t.Errorf("%s: no %q in the FS trace:\n%s", file, want, trace)
			}
		}
	}

	// The boot walk reads both files back through the same FS.
	before := len(ffs.Trace())
	srv2 := mustNew(t, Config{DataDir: dir, Open: repro.OpenOptions{FS: ffs}})
	defer srv2.Close()
	boot := strings.Join(ffs.Trace()[before:], "\n")
	for _, want := range []string{"readdir " + dir, "readfile " + filepath.Join(dbDir, formatMetaFile), "readfile " + filepath.Join(dbDir, EpochMetaFile)} {
		if !strings.Contains(boot, want) {
			t.Errorf("boot: no %q in the FS trace:\n%s", want, boot)
		}
	}
	if info := upload(t, srv2.Handler(), "ex", "chars", example11); info.Format != "chars" {
		t.Errorf("format after restart: %q", info.Format)
	}
}

// TestDurableDeleteFormatMetaFault: DELETE removes format.meta first,
// through the configured FS, because that removal is what makes the
// delete durable (the boot walk ignores a directory without it). If it
// fails, the delete is not durable and must answer 500.
func TestDurableDeleteFormatMetaFault(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	srv := mustNew(t, Config{DataDir: t.TempDir(), Open: repro.OpenOptions{FS: ffs}})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	rule := ffs.AddFault(vfs.Fault{Op: vfs.OpRemove, Path: formatMetaFile, At: -1, Err: syscall.EIO})
	if rr := doJSON(t, h, "DELETE", "/v1/databases/ex", ""); rr.Code != http.StatusInternalServerError {
		t.Fatalf("delete with a failing format.meta removal: %d %s, want 500", rr.Code, rr.Body)
	}
	if !ffs.Fired(rule) {
		t.Fatal("the remove fault on format.meta never fired")
	}
}

// TestDurableDeleteOrder: a durable DELETE goes through the configured
// FS in crash-safe order: format.meta, an fsync of the database
// directory, the remaining files and the directory, then an fsync of
// the data dir.
func TestDurableDeleteOrder(t *testing.T) {
	ffs := vfs.NewFaultFS(vfs.OS)
	dir := t.TempDir()
	srv := mustNew(t, Config{DataDir: dir, Open: repro.OpenOptions{FS: ffs}})
	defer srv.Close()
	h := srv.Handler()
	upload(t, h, "ex", "chars", example11)
	before := len(ffs.Trace())
	if rr := doJSON(t, h, "DELETE", "/v1/databases/ex", ""); rr.Code != http.StatusNoContent {
		t.Fatalf("delete: %d %s", rr.Code, rr.Body)
	}
	var ops []string
	for _, op := range ffs.Trace()[before:] {
		if strings.HasPrefix(op, "remove ") || strings.HasPrefix(op, "syncdir ") {
			ops = append(ops, op)
		}
	}
	dbDir := filepath.Join(dir, "ex")
	if len(ops) < 5 || ops[0] != "remove "+filepath.Join(dbDir, formatMetaFile) || ops[1] != "syncdir "+dbDir ||
		ops[len(ops)-2] != "remove "+dbDir || ops[len(ops)-1] != "syncdir "+dir {
		t.Fatalf("delete FS operations out of order:\n%s", strings.Join(ops, "\n"))
	}
	if _, err := os.Stat(dbDir); !os.IsNotExist(err) {
		t.Fatalf("delete left the directory behind: %v", err)
	}
}
