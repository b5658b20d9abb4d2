package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// reopen closes st and recovers a fresh store from the same directory.
func reopen(t *testing.T, st *Store, opt Options) *Store {
	t.Helper()
	dir := st.dur.dir
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return st2
}

// assertSameDB asserts two snapshots hold identical databases (dict
// names, sequences, labels) and the same generation.
func assertSameDB(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Generation() != want.Generation() {
		t.Fatalf("generation = %d, want %d", got.Generation(), want.Generation())
	}
	g, w := got.DB(), want.DB()
	if g.NumSequences() != w.NumSequences() {
		t.Fatalf("%d sequences, want %d", g.NumSequences(), w.NumSequences())
	}
	for i := range w.Seqs {
		if g.Label(i) != w.Label(i) {
			t.Fatalf("label %d = %q, want %q", i, g.Label(i), w.Label(i))
		}
		if g.PatternString(g.Seqs[i]) != w.PatternString(w.Seqs[i]) {
			t.Fatalf("sequence %d = %q, want %q", i, g.PatternString(g.Seqs[i]), w.PatternString(w.Seqs[i]))
		}
	}
}

func TestOpenEmptyDirStartsFresh(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Current().Generation() != 1 || st.Current().NumSequences() != 0 {
		t.Fatalf("fresh durable store: gen=%d n=%d", st.Current().Generation(), st.Current().NumSequences())
	}
	info := st.Durability()
	if !info.Durable || info.SegmentGeneration != 0 || info.WALRecords != 0 {
		t.Fatalf("info = %+v", info)
	}
}

func TestAppendsSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b", "a", "b"}}}, false)
	mustAppend(t, st, []Record{
		{Label: "S1", Events: []string{"a", "b"}}, // upsert
		{Label: "S2", Events: []string{"b", "a"}},
	}, true)
	want := st.Current()

	st2 := reopen(t, st, Options{})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
	if got := core.SupportOfNames(st2.Current().Index(false), []string{"a", "b"}); got != 3 {
		t.Fatalf("recovered sup(ab) = %d, want 3", got)
	}
	// The recovered store keeps accepting appends on the same lineage.
	snap := mustAppend(t, st2, []Record{{Label: "S3", Events: []string{"a"}}}, true)
	if snap.Generation() != want.Generation()+1 {
		t.Fatalf("post-recovery append went to generation %d", snap.Generation())
	}
}

func TestCreateReplacesPreviousState(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "old", Events: []string{"x", "x"}}}, false)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	db := seq.NewDB()
	db.AddChars("S1", "ABAB")
	st2, err := Create(dir, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Current().Generation() != 1 || st2.Current().NumSequences() != 1 {
		t.Fatalf("created store: gen=%d n=%d", st2.Current().Generation(), st2.Current().NumSequences())
	}
	if info := st2.Durability(); info.SegmentGeneration != 1 {
		t.Fatalf("create must checkpoint the seed: %+v", info)
	}

	st3 := reopen(t, st2, Options{})
	defer st3.Close()
	if st3.Current().NumSequences() != 1 || st3.Current().DB().Label(0) != "S1" {
		t.Fatalf("old state leaked through Create: %d sequences", st3.Current().NumSequences())
	}
}

func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	// Auto-checkpoint disabled: exercise the explicit path.
	st, err := Open(dir, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		mustAppend(t, st, []Record{{Events: []string{"a", "b", "c"}}}, false)
	}
	infoBefore := st.Durability()
	if infoBefore.WALRecords != 5 || infoBefore.WALBytes == 0 {
		t.Fatalf("before checkpoint: %+v", infoBefore)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	info := st.Durability()
	if info.SegmentGeneration != info.Generation || info.WALBytes != 0 || info.WALRecords != 0 {
		t.Fatalf("after checkpoint: %+v", info)
	}
	// Idempotent when nothing changed.
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Exactly one segment and one WAL file remain.
	l, err := listDir(vfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, wals := len(l.segments), len(l.wals)
	if segs != 1 || wals != 1 {
		t.Fatalf("after checkpoint: %d segments, %d WAL files", segs, wals)
	}

	want := st.Current()
	st2 := reopen(t, st, Options{})
	defer st2.Close()
	assertSameDB(t, st2.Current(), want)
}

func TestAutoCheckpointTriggersOnWALSize(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointWALBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"aaaaaaaaaa", "bbbbbbbbbb", "cccccccccc", "dddddddddd"}}}, false)
	info := st.Durability()
	if info.SegmentGeneration != info.Generation || info.WALBytes != 0 {
		t.Fatalf("64-byte threshold did not trigger a checkpoint: %+v", info)
	}
}

// TestRecoverySurvivesTornWALTail truncates the WAL at every byte offset
// inside its last frame: recovery must yield exactly the generations
// whose frames are intact, never an error.
func TestRecoverySurvivesTornWALTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)
	sizeAfterFirst := st.Durability().WALBytes
	mustAppend(t, st, []Record{{Label: "S2", Events: []string{"b", "a"}}}, false)
	sizeAfterSecond := st.Durability().WALBytes
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFileName(1))
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != sizeAfterSecond {
		t.Fatalf("wal file is %d bytes, store reported %d", len(full), sizeAfterSecond)
	}

	for cut := sizeAfterFirst; cut < sizeAfterSecond; cut++ {
		caseDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(caseDir, walFileName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(caseDir, Options{})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		snap := st2.Current()
		if snap.Generation() != 2 || snap.NumSequences() != 1 || snap.DB().Label(0) != "S1" {
			t.Fatalf("cut=%d: recovered gen=%d n=%d", cut, snap.Generation(), snap.NumSequences())
		}
		// The torn tail was truncated: appending works and re-recovers.
		mustAppend(t, st2, []Record{{Label: "S9", Events: []string{"z"}}}, false)
		st3 := reopen(t, st2, Options{})
		if st3.Current().NumSequences() != 2 || st3.Current().DB().Label(1) != "S9" {
			t.Fatalf("cut=%d: post-truncation append lost", cut)
		}
		st3.Close()
	}
}

// TestRecoveryAfterInterruptedCheckpoint simulates the crash windows of
// the checkpoint sequence (rotate, write segment, sweep) by hand-building
// the file layouts each window leaves behind.
func TestRecoveryAfterInterruptedCheckpoint(t *testing.T) {
	// Build a reference store: segment at gen 3 (2 appends + checkpoint),
	// then 2 more appends in the WAL.
	build := func(t *testing.T) (string, *Store) {
		dir := t.TempDir()
		st, err := Open(dir, Options{CheckpointWALBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a", "b"}}}, false)
		mustAppend(t, st, []Record{{Label: "S2", Events: []string{"b", "a"}}}, false)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a"}}}, true)
		mustAppend(t, st, []Record{{Label: "S3", Events: []string{"c"}}}, false)
		return dir, st
	}

	t.Run("CrashAfterRotateBeforeSegment", func(t *testing.T) {
		dir, st := build(t)
		want := st.Current()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate: rotation to wal-5 happened, segment 5 was never
		// written. Recovery must replay wal-3 then continue into wal-5.
		if err := os.WriteFile(filepath.Join(dir, walFileName(5)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		assertSameDB(t, st2.Current(), want)
		if st2.dur.walBase != 5 {
			t.Fatalf("live WAL base = %d, want 5", st2.dur.walBase)
		}
		// The next checkpoint heals the layout.
		mustAppend(t, st2, []Record{{Events: []string{"z"}}}, false)
		if err := st2.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, walFileName(3))); !os.IsNotExist(err) {
			t.Fatalf("stale wal-3 not swept: %v", err)
		}
	})

	t.Run("CrashAfterSegmentBeforeSweep", func(t *testing.T) {
		dir, st := build(t)
		if err := st.Checkpoint(); err != nil { // now: segment 5, wal-5
			t.Fatal(err)
		}
		want := st.Current()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// Simulate the sweep never happening: resurrect a stale wal-3 with
		// garbage that would corrupt recovery if it were replayed.
		if err := os.WriteFile(filepath.Join(dir, walFileName(3)), []byte("stale-garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		assertSameDB(t, st2.Current(), want)
	})

	t.Run("EmptyGapWALTolerated", func(t *testing.T) {
		// A crash in the rotation window under a weak fsync policy can
		// leave an EMPTY WAL based beyond the replayable generation (the
		// old WAL's unsynced tail died with the page cache). That is the
		// policies' documented bounded loss — recovery must boot with what
		// survived, not refuse.
		dir, st := build(t)
		want := st.Current()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, walFileName(7)), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		assertSameDB(t, st2.Current(), want)
	})

	t.Run("NonEmptyGapWALErrors", func(t *testing.T) {
		dir, st := build(t)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		// A NON-empty WAL beyond the recoverable generation holds batches
		// recovery cannot place: no crash ordering produces this, so it
		// must be reported, never silently dropped.
		gap := encodeBatch(nil, []Record{{Events: []string{"x"}}}, false)
		l, err := wal.Open(filepath.Join(dir, walFileName(7)), wal.Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Commit(gap); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil || !strings.Contains(err.Error(), "chain gap") {
			t.Fatalf("err = %v, want chain gap", err)
		}
	})
}

func TestCorruptSegmentFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "S1", Events: []string{"a"}}}, false)
	if err := st.Checkpoint(); err != nil { // segment 2
		t.Fatal(err)
	}
	mustAppend(t, st, []Record{{Label: "S2", Events: []string{"b"}}}, false)
	if err := st.Checkpoint(); err != nil { // segment 3, sweeps segment 2
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Resurrect an older segment (as if the sweep had crashed), then
	// corrupt the newest: recovery falls back. The WAL chain from the old
	// base is gone, so recovery lands on the old checkpoint alone.
	old := filepath.Join(dir, segmentFileName(2))
	db2 := seq.NewDB()
	db2.Add("S1", []string{"a"})
	if err := writeSegment(vfs.OS, dir, 2, encodeSegment(2, db2)); err != nil {
		t.Fatal(err)
	}
	newest := filepath.Join(dir, segmentFileName(3))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// Remove the now-stale wal-3 (based beyond segment 2's replayable
	// chain it is a legitimate gap — this test is about segment fallback).
	if err := os.Remove(filepath.Join(dir, walFileName(3))); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Current().Generation() != 2 || st2.Current().NumSequences() != 1 {
		t.Fatalf("fallback recovered gen=%d n=%d, want 2/1", st2.Current().Generation(), st2.Current().NumSequences())
	}
	_ = old
}

func TestDurableMiningMatchesInMemory(t *testing.T) {
	// The acceptance shape: a durable store recovered from disk mines
	// byte-identically to the same database built in memory.
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	mem := New(Options{})
	batches := [][]Record{
		{{Label: "S1", Events: []string{"A", "A", "B", "C", "D", "A", "B", "B"}}},
		{{Label: "S2", Events: []string{"A", "B", "C", "D"}}},
		{{Label: "S1", Events: []string{"A", "B"}}, {Label: "S3", Events: []string{"C", "D", "C"}}},
	}
	for _, b := range batches {
		mustAppend(t, st, b, true)
		mustAppend(t, mem, b, true)
	}
	st2 := reopen(t, st, Options{})
	defer st2.Close()

	for _, minsup := range []int{1, 2, 3} {
		for _, closed := range []bool{false, true} {
			got := mustMine(t, st2.Current(), core.Options{MinSupport: minsup, Closed: closed, CollectInstances: true})
			want := mustMine(t, mem.Current(), core.Options{MinSupport: minsup, Closed: closed, CollectInstances: true})
			if len(got.Patterns) != len(want.Patterns) {
				t.Fatalf("minsup=%d closed=%v: %d patterns, want %d", minsup, closed, len(got.Patterns), len(want.Patterns))
			}
			gdb, wdb := st2.Current().DB(), mem.Current().DB()
			for i := range want.Patterns {
				g, w := got.Patterns[i], want.Patterns[i]
				if gdb.PatternString(g.Events) != wdb.PatternString(w.Events) || g.Support != w.Support {
					t.Fatalf("minsup=%d closed=%v pattern %d: got %s/%d, want %s/%d", minsup, closed, i,
						gdb.PatternString(g.Events), g.Support, wdb.PatternString(w.Events), w.Support)
				}
			}
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{SyncPolicy: policy, SyncInterval: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			mustAppend(t, st, []Record{{Events: []string{"a", "b"}}}, false)
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			if got := st.Durability().SyncPolicy; got != policy {
				t.Fatalf("reported policy %v, want %v", got, policy)
			}
			st2 := reopen(t, st, Options{SyncPolicy: policy})
			if st2.Current().NumSequences() != 1 {
				t.Fatalf("policy %v lost a synced append across clean close", policy)
			}
			st2.Close()
		})
	}
}

func TestClosedStoreRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]Record{{Events: []string{"a"}}}, false); err == nil {
		t.Fatal("append to a closed durable store must error")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	cases := []struct {
		records []Record
		upsert  bool
	}{
		{nil, false},
		{[]Record{{Label: "S1", Events: []string{"a", "b"}}}, true},
		{[]Record{{Events: nil}, {Label: "x", Events: []string{"", "multi word event"}}}, false},
	}
	for _, c := range cases {
		records, upsert, err := decodeBatch(encodeBatch(nil, c.records, c.upsert))
		if err != nil {
			t.Fatal(err)
		}
		if upsert != c.upsert || len(records) != len(c.records) {
			t.Fatalf("round trip: %v/%v, want %v/%v", records, upsert, c.records, c.upsert)
		}
		for i := range c.records {
			if records[i].Label != c.records[i].Label || len(records[i].Events) != len(c.records[i].Events) {
				t.Fatalf("record %d: %+v != %+v", i, records[i], c.records[i])
			}
			for j := range c.records[i].Events {
				if records[i].Events[j] != c.records[i].Events[j] {
					t.Fatalf("record %d event %d mismatch", i, j)
				}
			}
		}
	}
}
