package server

import (
	"net/http"
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
