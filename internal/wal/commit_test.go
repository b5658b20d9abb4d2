package wal

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/vfs"
)

// slowSyncFS delays every fsync, modeling a real disk whose flush
// latency dwarfs write latency — the regime group commit exists for.
// While one batch's fsync is in flight, every arriving Commit queues
// behind it and must coalesce into the next batch.
type slowSyncFS struct {
	vfs.FS
	delay time.Duration
}

type slowSyncFile struct {
	vfs.File
	delay time.Duration
}

func (s slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := s.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{File: f, delay: s.delay}, nil
}

func (f slowSyncFile) Sync() error {
	time.Sleep(f.delay)
	return f.File.Sync()
}

// TestGroupCommitConcurrent is the core correctness property: N
// goroutines × M commits with randomized record sizes must each get a
// distinct, contiguous record number, and a scan of the log must show
// every record at exactly its assigned position — batch boundaries are
// invisible in scan order.
func TestGroupCommitConcurrent(t *testing.T) {
	const clients, perClient = 8, 40
	dir := t.TempDir()
	l, err := Open(filepath.Join(dir, "wal-0000000000000001.log"), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	byRec := make([][]byte, clients*perClient+1)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < perClient; i++ {
				payload := make([]byte, 1+rng.Intn(200))
				rng.Read(payload)
				payload[0] = byte(c) // make collisions detectable
				rec, err := l.Commit(payload)
				if err != nil {
					t.Errorf("client %d commit %d: %v", c, i, err)
					return
				}
				mu.Lock()
				if rec < 1 || rec >= len(byRec) {
					t.Errorf("record number %d out of range", rec)
				} else if byRec[rec] != nil {
					t.Errorf("record number %d assigned twice", rec)
				} else {
					byRec[rec] = payload
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	stats := l.CommitStats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	if want := int64(clients * perClient); stats.Records != want {
		t.Fatalf("CommitStats.Records = %d, want %d", stats.Records, want)
	}
	if stats.Batches < 1 || stats.Batches > stats.Records {
		t.Fatalf("CommitStats.Batches = %d out of range (records %d)", stats.Batches, stats.Records)
	}
	if stats.Syncs > stats.Batches {
		t.Fatalf("Syncs = %d > Batches = %d: a batch fsynced more than once", stats.Syncs, stats.Batches)
	}

	// Replay: record i of the scan must be the payload assigned number
	// i+1, and every number must be present.
	i := 0
	n, _, torn, err := ScanFS(vfs.OS, l.Path(), func(p []byte) error {
		i++
		if byRec[i] == nil {
			return fmt.Errorf("record %d was never assigned", i)
		}
		if !bytes.Equal(p, byRec[i]) {
			return fmt.Errorf("record %d content mismatch", i)
		}
		return nil
	})
	if err != nil || torn {
		t.Fatalf("scan: n=%d torn=%v err=%v", n, torn, err)
	}
	if n != clients*perClient {
		t.Fatalf("scan found %d records, want %d", n, clients*perClient)
	}
}

// TestGroupCommitCoalesces pins the point of the whole mechanism: with
// fsync latency dominating, concurrent commits must share fsyncs. 8
// clients × 25 records over a 2ms-per-fsync disk serialized would need
// 200 fsyncs; coalescing must do far better than one per record.
func TestGroupCommitCoalesces(t *testing.T) {
	const clients, perClient = 8, 25
	dir := t.TempDir()
	fs := slowSyncFS{FS: vfs.OS, delay: 2 * time.Millisecond}
	l, err := Open(filepath.Join(dir, "wal-0000000000000001.log"), Options{FS: fs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if _, err := l.Commit([]byte(fmt.Sprintf("c%d-%d", c, i))); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	stats := l.CommitStats()
	if stats.Records != clients*perClient {
		t.Fatalf("records = %d, want %d", stats.Records, clients*perClient)
	}
	// With 8 clients blocked behind each 2ms fsync, batches must carry
	// several records each. Demand at least a 2x coalescing factor —
	// comfortably below what the mechanism achieves, far above chance.
	if stats.Batches*2 > stats.Records {
		t.Fatalf("no real coalescing: %d batches for %d records", stats.Batches, stats.Records)
	}
	if stats.Syncs > stats.Batches {
		t.Fatalf("Syncs = %d > Batches = %d", stats.Syncs, stats.Batches)
	}
}

// TestGroupCommitFailedFsyncFailsBatch: one I/O failure fails every
// record in the batch with the same typed root error, poisons the log
// for every later commit, and never acknowledges a record that is not
// durable.
func TestGroupCommitFailedFsyncFailsBatch(t *testing.T) {
	const clients = 6
	dir := t.TempDir()
	path := filepath.Join(dir, "wal-0000000000000001.log")
	ffs := vfs.NewFaultFS(vfs.OS)
	// Every fsync fails: whichever batches form, each fails whole.
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, At: -1, Err: syscall.EIO})
	l, err := Open(path, Options{FS: ffs}, nil)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, errs[c] = l.Commit([]byte{byte(c)})
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err == nil {
			t.Fatalf("client %d: commit acknowledged over a failed fsync", c)
		}
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("client %d: error %v loses the root errno", c, err)
		}
	}
	// The log is poisoned exactly like the unbatched path: sticky error,
	// observable via Err, returned by every further commit.
	if !errors.Is(l.Err(), syscall.EIO) {
		t.Fatalf("Err() = %v, want sticky EIO", l.Err())
	}
	if _, err := l.Commit([]byte("later")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("commit after poisoning = %v, want sticky EIO", err)
	}
	if stats := l.CommitStats(); stats.Records != 0 || stats.Batches != 0 {
		t.Fatalf("failed batches counted as committed: %+v", stats)
	}
	l.Close()

	// Nothing was acknowledged, so recovery owes nothing: however many
	// complete frames the failed-fsync batches left behind, reopening
	// keeping 0 acknowledged records must succeed.
	l2, err := OpenPrefix(path, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Records() != 0 || l2.Size() != 0 {
		t.Fatalf("after truncate: records=%d size=%d", l2.Records(), l2.Size())
	}
	l2.Close()
}

// TestGroupCommitCloseRace: commits racing Close must each either be
// acknowledged (and then survive reopen) or fail with ErrClosed — no
// panic, no lost ack, no hang.
func TestGroupCommitCloseRace(t *testing.T) {
	for round := 0; round < 10; round++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal-0000000000000001.log")
		l, err := Open(path, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		const clients = 8
		acked := make([]bool, clients)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				_, err := l.Commit([]byte{byte(c)})
				switch {
				case err == nil:
					acked[c] = true
				case errors.Is(err, ErrClosed):
				default:
					t.Errorf("client %d: unexpected error %v", c, err)
				}
			}(c)
		}
		close(start)
		l.Close()
		wg.Wait()

		var want int
		for _, a := range acked {
			if a {
				want++
			}
		}
		n, _, torn, err := ScanFS(vfs.OS, path, nil)
		if err != nil || torn {
			t.Fatalf("scan: torn=%v err=%v", torn, err)
		}
		if n < want {
			t.Fatalf("round %d: %d records on disk, but %d were acknowledged", round, n, want)
		}
	}
}

// TestCommitWithoutCommitter: under the weak policies Commit runs
// without the committer, writing one frame under the log's mutex, and
// numbers records exactly as the committer does.
func TestCommitWithoutCommitter(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncInterval, SyncNever} {
		dir := t.TempDir()
		l, err := Open(filepath.Join(dir, "wal-0000000000000001.log"), Options{Policy: policy}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 3; i++ {
			rec, err := l.Commit([]byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			if rec != i {
				t.Fatalf("%v: record number %d, want %d", policy, rec, i)
			}
		}
		if _, err := l.Commit(nil); err == nil {
			t.Fatalf("%v: empty record accepted", policy)
		}
		if stats := l.CommitStats(); stats.Records != 3 || stats.Batches != 3 || stats.Syncs != 0 {
			t.Fatalf("%v: CommitStats = %+v, want 3 one-record batches and no fsync", policy, stats)
		}
		l.Close()
		if n, _, torn, err := ScanFS(vfs.OS, l.Path(), nil); n != 3 || torn || err != nil {
			t.Fatalf("%v: scan n=%d torn=%v err=%v", policy, n, torn, err)
		}
	}
}

// TestCommitterOnlyUnderSyncAlways: the committer runs exactly under
// SyncAlways; weaker policies never pay per-record fsyncs, so there is
// nothing for it to coalesce.
func TestCommitterOnlyUnderSyncAlways(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		dir := t.TempDir()
		l, err := Open(filepath.Join(dir, "wal-0000000000000001.log"), Options{Policy: policy}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := l.com != nil; got != (policy == SyncAlways) {
			t.Fatalf("policy %v: committer running = %v", policy, got)
		}
		l.Close()
	}
}

// TestFrameEncodeZeroAllocs pins the shared frame encoder's allocation
// behavior on both commit paths: steady-state, neither a weak-policy
// Commit nor a group-committed one allocates per record.
func TestFrameEncodeZeroAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 128)
	for i, policy := range []SyncPolicy{SyncNever, SyncAlways} {
		l, err := Open(filepath.Join(dir, fmt.Sprintf("wal-%016x.log", i+1)), Options{Policy: policy}, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		// Warm the frame buffer and the waiter-channel pool.
		for i := 0; i < 64; i++ {
			if _, err := l.Commit(payload); err != nil {
				t.Fatal(err)
			}
		}
		if avg := testing.AllocsPerRun(200, func() {
			if _, err := l.Commit(payload); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Fatalf("%v: Commit allocates %.1f/record in steady state, want 0", policy, avg)
		}
	}
}
