package store

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// countOps counts the trace lines of ffs whose op is op and whose path
// contains sub.
func countOps(ffs *vfs.FaultFS, op vfs.Op, sub string) int {
	n := 0
	for _, line := range ffs.Trace() {
		if strings.HasPrefix(line, op.String()+" ") && strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// TestOpenReadsLiveWALOnce pins the I/O of recovery: Open replays the
// live WAL through the handle it keeps, so over N records it opens the
// file once and performs at most 2N+16 filesystem operations (two reads
// per record plus a constant).
func TestOpenReadsLiveWALOnce(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir, Options{SyncPolicy: wal.SyncNever, CheckpointWALBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				mustAppend(t, st, []Record{{Label: fmt.Sprint("s", i%7), Events: []string{"a", "b"}}}, true)
			}
			want := st.Current()
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			ffs := vfs.NewFaultFS(vfs.OS)
			st2, err := Open(dir, Options{SyncPolicy: wal.SyncNever, FS: ffs})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			ops := ffs.Ops()
			assertSameDB(t, st2.Current(), want)
			if opens := countOps(ffs, vfs.OpOpenFile, "wal-") + countOps(ffs, vfs.OpOpen, "wal-"); opens != 1 {
				t.Errorf("live WAL opened %d times, want once", opens)
			}
			if limit := 2*n + 16; ops > limit {
				t.Errorf("Open over %d records: %d ops, want <= %d", n, ops, limit)
			}
			t.Logf("Open over %d records: %d ops", n, ops)
		})
	}
}

// TestChainReaderStatsOnce: a reader catching up over records already on
// disk states the file when its cached size runs out, not per record.
func TestChainReaderStatsOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 50
	for i := 0; i < n; i++ {
		mustAppend(t, st, []Record{{Events: []string{"a"}}}, false)
	}
	ffs := vfs.NewFaultFS(vfs.OS)
	c := NewChainReader(ffs, dir, 2)
	defer c.Close()
	for i := 0; i < n; i++ {
		if _, ok, err := c.Next(); !ok || err != nil {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("past the tail: ok=%v err=%v", ok, err)
	}
	if stats := countOps(ffs, vfs.OpStat, "wal-"); stats > 2 {
		t.Fatalf("%d stats for %d records, want at most 2", stats, n)
	}
}
