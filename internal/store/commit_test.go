package store

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// syncPolicies runs fn as one subtest per fsync policy: the commit path
// releases the store mutex across the WAL commit under always and holds
// it under the weaker policies, and each test must hold on both.
func syncPolicies(t *testing.T, fn func(t *testing.T, policy wal.SyncPolicy)) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) { fn(t, policy) })
	}
}

// TestGroupCommitConcurrentAppendsSurviveReopen drives the commit path
// with many concurrent appenders and checks the invariants that matter:
// every acknowledged append is present after recovery, the spine
// generation advanced exactly once per append (batching must be
// invisible to readers), and the commit counters account for every
// record.
func TestGroupCommitConcurrentAppendsSurviveReopen(t *testing.T) {
	syncPolicies(t, testConcurrentAppendsSurviveReopen)
}

func testConcurrentAppendsSurviveReopen(t *testing.T, policy wal.SyncPolicy) {
	dir := t.TempDir()
	opt := Options{SyncPolicy: policy}
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 8, 25
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				label := fmt.Sprintf("C%d-%d", c, i)
				events := make([]string, 1+rng.Intn(5))
				for j := range events {
					events[j] = string(rune('a' + rng.Intn(3)))
				}
				if _, err := st.Append([]Record{{Label: label, Events: events}}, true); err != nil {
					t.Errorf("append %s: %v", label, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := st.Current()
	if got := want.Generation(); got != 1+clients*perClient {
		t.Fatalf("generation = %d, want %d (one per append)", got, 1+clients*perClient)
	}
	info := st.Durability()
	if info.CommitRecords != clients*perClient {
		t.Fatalf("CommitRecords = %d, want %d", info.CommitRecords, clients*perClient)
	}
	if info.CommitBatches < 1 || info.CommitBatches > info.CommitRecords {
		t.Fatalf("CommitBatches = %d out of range [1, %d]", info.CommitBatches, info.CommitRecords)
	}
	if policy != wal.SyncAlways && info.CommitBatches != info.CommitRecords {
		t.Fatalf("CommitBatches = %d, want one per record (%d) under %v", info.CommitBatches, info.CommitRecords, policy)
	}

	st2 := reopen(t, st, opt)
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
}

// TestGroupCommitFsyncFailureDegradesOnce injects a permanent WAL
// failure mid-stream — the fsync under always, the write under the
// weaker policies, whose commits never fsync: every concurrent appender
// caught in the poisoned batch (or after it) must fail with ErrDegraded
// wrapping the root errno, the store must flip degraded exactly once,
// and later appends must reject fast without touching the disk.
func TestGroupCommitFsyncFailureDegradesOnce(t *testing.T) {
	syncPolicies(t, testFailureDegradesOnce)
}

func testFailureDegradesOnce(t *testing.T, policy wal.SyncPolicy) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	opt := Options{SyncPolicy: policy, FS: ffs, ProbeBackoff: time.Minute, ProbeBackoffMax: time.Minute}
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppend(t, st, []Record{{Label: "GOOD", Events: []string{"a", "b"}}}, false)
	before := st.Current()

	op := vfs.OpWrite
	if policy == wal.SyncAlways {
		op = vfs.OpSync
	}
	ffs.AddFault(vfs.Fault{Op: op, Path: "wal-", At: -1, Err: syscall.EIO})
	const clients = 8
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = st.Append([]Record{{Label: fmt.Sprintf("BAD%d", c), Events: []string{"x"}}}, false)
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("client %d: err = %v, want ErrDegraded", c, err)
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("client %d: err %v does not preserve EIO", c, err)
		}
	}
	if got := st.Current(); got != before {
		t.Fatalf("snapshot advanced to gen %d on failed appends", got.Generation())
	}

	// Degraded now; further appends reject without I/O.
	opsBefore := ffs.Ops()
	if _, err := st.Append([]Record{{Label: "LATE", Events: []string{"y"}}}, false); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append while degraded = %v", err)
	}
	if ffs.Ops() != opsBefore {
		t.Fatalf("degraded append performed %d I/O ops; fast rejection must do none", ffs.Ops()-opsBefore)
	}
	if info := st.Durability(); !info.Degraded || info.DegradedError == "" {
		t.Fatalf("Durability = %+v, want degraded with cause", info)
	}
}

// TestGroupCommitCheckpointRotationUnderLoad forces a checkpoint after
// essentially every batch (CheckpointWALBytes=1) while appenders run
// concurrently: the quiesce barrier must rotate the WAL without losing
// or reordering a single acknowledged record across the base change.
func TestGroupCommitCheckpointRotationUnderLoad(t *testing.T) {
	syncPolicies(t, testCheckpointRotationUnderLoad)
}

func testCheckpointRotationUnderLoad(t *testing.T, policy wal.SyncPolicy) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: policy, CheckpointWALBytes: 1})
	if err != nil {
		t.Fatal(err)
	}

	const clients, perClient = 6, 20
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				label := fmt.Sprintf("R%d-%d", c, i)
				if _, err := st.Append([]Record{{Label: label, Events: []string{"a", "b", "a"}}}, true); err != nil {
					t.Errorf("append %s: %v", label, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	want := st.Current()
	if got := want.Generation(); got != 1+clients*perClient {
		t.Fatalf("generation = %d, want %d", got, 1+clients*perClient)
	}
	if info := st.Durability(); info.SegmentGeneration == 0 {
		t.Fatalf("no checkpoint ever ran under CheckpointWALBytes=1: %+v", info)
	}

	st2 := reopen(t, st, Options{SyncPolicy: policy})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
}

// TestGroupCommitCloseRacingAppends races Store.Close against in-flight
// commits: appends that were acknowledged must survive reopen, appends
// that failed must fail with wal.ErrClosed (a close is not a disk
// failure — the store must not report degraded), and nothing may
// deadlock or panic.
func TestGroupCommitCloseRacingAppends(t *testing.T) {
	syncPolicies(t, testCloseRacingAppends)
}

func testCloseRacingAppends(t *testing.T, policy wal.SyncPolicy) {
	opt := Options{SyncPolicy: policy}
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		st, err := Open(dir, opt)
		if err != nil {
			t.Fatal(err)
		}

		const clients = 8
		var (
			mu    sync.Mutex
			acked []string
		)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; ; i++ {
					label := fmt.Sprintf("K%d-%d", c, i)
					_, err := st.Append([]Record{{Label: label, Events: []string{"z"}}}, true)
					if err != nil {
						if !errors.Is(err, wal.ErrClosed) {
							t.Errorf("append after close: %v, want wal.ErrClosed", err)
						}
						return
					}
					mu.Lock()
					acked = append(acked, label)
					mu.Unlock()
				}
			}(c)
		}
		time.Sleep(time.Duration(1+round) * time.Millisecond)
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		st2, err := Open(dir, opt)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		db := st2.Current().DB()
		have := make(map[string]bool, db.NumSequences())
		for i := range db.Seqs {
			have[db.Label(i)] = true
		}
		for _, label := range acked {
			if !have[label] {
				t.Fatalf("round %d: acknowledged append %s lost across close+reopen", round, label)
			}
		}
		st2.Close()
	}
}
