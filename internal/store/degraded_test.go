package store

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// fastProbe is prober timing tight enough for tests to observe healing
// without slowing the suite.
var fastProbe = Options{ProbeBackoff: time.Millisecond, ProbeBackoffMax: 20 * time.Millisecond}

// waitHealthy polls Durability until the store leaves degraded mode and
// has no pending checkpoint failure, or the deadline passes.
func waitHealthy(t *testing.T, st *Store) DurabilityInfo {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		info := st.Durability()
		if !info.Degraded && info.CheckpointError == "" {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("store never healed: %+v", info)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWALFailureEntersDegradedMode(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	// Long backoff: this test wants to observe the degraded state, not
	// race the prober's heal.
	opt.ProbeBackoff = time.Minute
	opt.ProbeBackoffMax = time.Minute
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)
	before := st.Current()

	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", At: -1, Err: syscall.ENOSPC})
	_, err = st.Append([]Record{{Label: "S2", Events: []string{"b"}}}, false)
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("append during ENOSPC = %v, want ErrDegraded", err)
	}
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append error %v does not preserve ENOSPC", err)
	}

	// The failed batch must not be visible: nothing was acknowledged.
	if got := st.Current(); got != before {
		t.Fatalf("snapshot advanced to gen %d on a failed append", got.Generation())
	}

	// Subsequent appends reject fast with the same taxonomy, without
	// touching the disk again.
	opsBefore := ffs.Ops()
	_, err = st.Append([]Record{{Label: "S3", Events: []string{"a"}}}, false)
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append while degraded = %v", err)
	}
	if ffs.Ops() != opsBefore {
		t.Fatalf("degraded append performed %d I/O ops; fast rejection must do none", ffs.Ops()-opsBefore)
	}

	// Reads keep serving the last good snapshot.
	info := st.Durability()
	if !info.Degraded || info.DegradedError == "" {
		t.Fatalf("Durability = %+v, want degraded with cause", info)
	}
	if info.WALError == "" {
		t.Fatalf("Durability.WALError empty; the sticky WAL error must surface")
	}
	if st.Current().NumSequences() != 1 {
		t.Fatalf("reads broken while degraded: %d sequences", st.Current().NumSequences())
	}
}

func TestProberHealsAfterDiskRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)

	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", At: -1, Err: syscall.ENOSPC})
	if _, err := st.Append([]Record{{Label: "S2", Events: []string{"b"}}}, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append = %v, want ErrDegraded", err)
	}

	// "Free disk space": the prober must clear degradation on its own.
	ffs.ClearFaults()
	waitHealthy(t, st)

	// Full service: appends work again and the recovered lineage is
	// consistent across reopen.
	mustAppend(t, st, []Record{{Label: "S3", Events: []string{"a", "a"}}}, false)
	want := st.Current()
	if want.NumSequences() != 2 {
		t.Fatalf("%d sequences after heal, want 2 (failed S2 batch must stay absent)", want.NumSequences())
	}
	st2 := reopen(t, st, Options{})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
}

func TestHealDropsUnacknowledgedSyncFailedFrame(t *testing.T) {
	// The nasty case: the frame WRITE succeeds, only the fsync fails.
	// The append is rejected (never acknowledged, never applied) but a
	// complete frame sits in the WAL. Healing must truncate it away —
	// otherwise a later checkpoint rotation leaves a chain whose replay
	// resurrects a rejected batch (or refuses to boot with a chain gap).
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)

	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Path: "wal-", At: 0, Err: syscall.EIO})
	if _, err := st.Append([]Record{{Label: "REJECTED", Events: []string{"b"}}}, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append = %v, want ErrDegraded", err)
	}
	waitHealthy(t, st)

	// A checkpoint right after healing exercises the rotation the stale
	// frame would have corrupted.
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after heal: %v", err)
	}
	mustAppend(t, st, []Record{{Label: "S2", Events: []string{"a"}}}, false)
	want := st.Current()

	st2 := reopen(t, st, Options{})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
	got := st2.Current().DB()
	for i := 0; i < got.NumSequences(); i++ {
		if got.Label(i) == "REJECTED" {
			t.Fatalf("rejected batch resurrected at sequence %d", i)
		}
	}
}

// TestHealReadsLiveWALOnce pins the I/O of a heal: after an injected
// fsync EIO leaves a complete unacknowledged frame behind N acknowledged
// records, the prober reopens the log and finds record N in one pass —
// at most 2(N+1) reads of the WAL, two per frame header and payload —
// rather than replaying the file and then walking it again to truncate.
func TestHealReadsLiveWALOnce(t *testing.T) {
	const n = 500
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	opt.CheckpointWALBytes = -1
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < n; i++ {
		mustAppend(t, st, []Record{{Label: fmt.Sprint("s", i%7), Events: []string{"a", "b"}}}, true)
	}

	before := countOps(ffs, vfs.OpReadAt, "wal-")
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Path: "wal-", At: 0, Err: syscall.EIO})
	if _, err := st.Append([]Record{{Label: "REJECTED", Events: []string{"b"}}}, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append = %v, want ErrDegraded", err)
	}
	waitHealthy(t, st)
	reads := countOps(ffs, vfs.OpReadAt, "wal-") - before
	if limit := 2 * (n + 1); reads > limit {
		t.Errorf("heal over %d records read the WAL %d times, want <= %d", n, reads, limit)
	}
	t.Logf("heal over %d records: %d WAL reads", n, reads)

	mustAppend(t, st, []Record{{Label: "AFTER", Events: []string{"a"}}}, false)
	want := st.Current()
	st2 := reopen(t, st, Options{})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
	if got := st2.Current().DB(); got.NumSequences() != 8 {
		t.Fatalf("reopened store holds %d sequences, want 8 (7 upserted labels + AFTER)", got.NumSequences())
	}
}

func TestProberRetriesFailedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	opt.CheckpointWALBytes = 1 // every append wants a checkpoint
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Segment writes fail; WAL writes succeed. The append itself must
	// succeed (the data is durable in the WAL) with the checkpoint
	// failure recorded, and the prober must retry it until it lands.
	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: ".seg", At: -1, Err: syscall.ENOSPC})
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)
	info := st.Durability()
	if info.CheckpointError == "" {
		t.Fatalf("Durability = %+v, want pending checkpoint error", info)
	}
	if info.Degraded {
		t.Fatalf("a checkpoint failure must not flip the store read-only: %+v", info)
	}

	ffs.ClearFaults()
	info = waitHealthy(t, st)
	if info.SegmentGeneration != st.Current().Generation() {
		t.Fatalf("prober did not complete the checkpoint: %+v", info)
	}
}

func TestDegradedStoreCloseStopsProber(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := fastProbe
	opt.FS = ffs
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a"}}}, false)
	ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", At: -1, Err: syscall.ENOSPC})
	if _, err := st.Append([]Record{{Label: "S2", Events: []string{"b"}}}, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append = %v, want ErrDegraded", err)
	}
	// Close while the disk is still broken: must stop the prober and
	// return without hanging (the test harness times out if not).
	if err := st.Close(); err == nil {
		// The poisoned WAL's close reports its sticky error; either nil
		// (already handled) or the sticky error is acceptable — what
		// matters is termination.
		_ = err
	}
}

func TestDegradedErrorMessageNamesCause(t *testing.T) {
	err := degradedError(fmt.Errorf("wal: sync: %w", syscall.ENOSPC))
	if !errors.Is(err, ErrDegraded) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("degradedError loses taxonomy: %v", err)
	}
}
