package store

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/vfs"
)

// time10m parks the prober far in the future: these sweeps assert the
// immediate failure shape, not the heal.
const time10m = 10 * time.Minute

// TestSegmentWriteTornAtEveryByteOffset is the mid-segment torn-write
// property test: a checkpoint whose segment write is cut short at EVERY
// byte offset must fail the checkpoint, leave the pre-checkpoint state
// fully recoverable (segment + WAL chain), and never install a damaged
// segment where recovery would trust it.
func TestSegmentWriteTornAtEveryByteOffset(t *testing.T) {
	// Measure the segment size once with a clean run of the same data.
	seed := func(st *Store) {
		mustAppend(t, st, []Record{
			{Label: "S1", Events: []string{"a", "b", "a"}},
			{Label: "S2", Events: []string{"b", "b"}},
		}, false)
	}
	probe := t.TempDir()
	pst, err := Open(probe, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	seed(pst)
	if err := pst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	segData, err := os.ReadFile(filepath.Join(probe, segmentFileName(2)))
	if err != nil {
		t.Fatal(err)
	}
	pst.Close()

	for cut := 0; cut < len(segData); cut++ {
		dir := t.TempDir()
		ffs := vfs.NewFaultFS(vfs.OS)
		opt := Options{CheckpointWALBytes: -1, FS: ffs,
			ProbeBackoff: time10m, ProbeBackoffMax: time10m}
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("cut=%d: open: %v", cut, err)
		}
		seed(st)
		want := st.Current()

		ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", At: 0, ShortWrite: cut, Err: syscall.ENOSPC})
		err = st.Checkpoint()
		if err == nil {
			t.Fatalf("cut=%d: torn checkpoint reported success", cut)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("cut=%d: checkpoint error %v loses the errno", cut, err)
		}
		// The append data stays durable in the WAL; the store is not
		// read-only (checkpoint failure ≠ WAL failure).
		if info := st.Durability(); info.Degraded || info.CheckpointError == "" {
			t.Fatalf("cut=%d: Durability = %+v", cut, info)
		}
		st.Close()

		// Reopen through the real OS: full pre-checkpoint state, no
		// panic, no half-written segment trusted.
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: reopen: %v", cut, err)
		}
		assertSameDB(t, st2.Current(), want)
		st2.Close()
	}
}

// TestSegmentTruncatedOnDiskFallsBackToOlder sweeps byte-level truncation
// of an INSTALLED newest segment (external damage, not a torn write —
// installs are atomic) and asserts Open falls back to the older
// checkpoint at every cut point, as documented in recoverDir.
func TestSegmentTruncatedOnDiskFallsBackToOlder(t *testing.T) {
	// Build a directory whose newest segment (gen 2) can be damaged and
	// whose live WAL is empty, with a resurrected gen-1 segment to fall
	// back on. Stride the cut to keep the sweep fast while still hitting
	// header, payload, and boundary offsets.
	build := func(t *testing.T, dir string) (newest string, full []byte) {
		st, err := Open(dir, Options{CheckpointWALBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)
		if err := st.Checkpoint(); err != nil { // segment 2 + empty wal-2
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Resurrect a gen-1 segment (as if the sweep had crashed): the
		// empty database every store starts from, so fallback to it is
		// observable as generation 1 with no sequences.
		if err := writeSegment(vfs.OS, dir, 1, encodeSegment(1, seq.NewDB())); err != nil {
			t.Fatal(err)
		}
		newest = filepath.Join(dir, segmentFileName(2))
		full, err = os.ReadFile(newest)
		if err != nil {
			t.Fatal(err)
		}
		return newest, full
	}

	dir := t.TempDir()
	newest, full := build(t, dir)
	for cut := 0; cut < len(full); cut += 7 {
		if err := os.WriteFile(newest, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: open must fall back, got %v", cut, err)
		}
		if g := st.Current().Generation(); g != 1 {
			t.Fatalf("cut=%d: recovered generation %d, want fallback to 1", cut, g)
		}
		if n := st.Current().NumSequences(); n != 0 {
			t.Fatalf("cut=%d: fallback state has %d sequences", cut, n)
		}
		// Inspect must flag the damage for ops tooling.
		rep, err := Inspect(vfs.OS, dir)
		if err != nil {
			t.Fatalf("cut=%d: inspect: %v", cut, err)
		}
		if !rep.Corrupt() {
			t.Fatalf("cut=%d: Inspect.Corrupt() = false on a truncated segment", cut)
		}
		st.Close()
		// Restore for the next cut (Open truncates nothing, but the live
		// WAL file was created; that is fine and recovery-neutral).
		if err := os.WriteFile(newest, full, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
