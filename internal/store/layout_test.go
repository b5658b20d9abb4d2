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
// live WAL through the handle it keeps, reading it in 64 KiB blocks, so
// over a WAL of B bytes it opens the file once and performs at most
// 8 + B/32KiB filesystem operations (a constant plus one read per block,
// with room for blocks that end early at a frame boundary) however many
// records the WAL holds.
func TestOpenReadsLiveWALOnce(t *testing.T) {
	for _, n := range []int{10, 100, 1000, 5000} {
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
			l, err := listDir(vfs.OS, dir)
			if err != nil {
				t.Fatal(err)
			}
			var walBytes int64
			for _, w := range l.wals {
				walBytes += w.size
			}
			if limit := 8 + int(walBytes>>15); ops > limit {
				t.Errorf("Open over %d records (%d WAL bytes): %d ops, want <= %d", n, walBytes, ops, limit)
			}
			t.Logf("Open over %d records (%d WAL bytes): %d ops", n, walBytes, ops)
		})
	}
}

// TestChainReaderSeesGrowthBetweenPolls: a chain reader that reached the
// live tail picks up records appended after that, poll after poll, in
// read-ahead blocks rather than reads per record.
func TestChainReaderSeesGrowthBetweenPolls(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: wal.SyncNever, CheckpointWALBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ffs := vfs.NewFaultFS(vfs.OS)
	c := NewChainReader(ffs, dir, 2)
	defer c.Close()
	gen := 1
	for round := 0; round < 4; round++ {
		for i := 0; i < 200; i++ {
			mustAppend(t, st, []Record{{Label: fmt.Sprint("r", round, "-", i), Events: []string{"a", "b"}}}, false)
		}
		through := st.Current().Generation()
		for i := 0; i < 200; i++ {
			p, ok, err := c.Next(through)
			if !ok || err != nil {
				t.Fatalf("round %d record %d: ok=%v err=%v", round, i, ok, err)
			}
			gen++
			recs, _, err := decodeBatch(p)
			if err != nil || len(recs) != 1 || recs[0].Label != fmt.Sprint("r", round, "-", i) {
				t.Fatalf("round %d record %d: %v %v", round, i, recs, err)
			}
		}
		if _, ok, err := c.Next(through + 1); ok || err != nil {
			t.Fatalf("round %d past the tail: ok=%v err=%v", round, ok, err)
		}
	}
	if reads := countOps(ffs, vfs.OpReadAt, "wal-"); reads > 12 {
		t.Fatalf("%d reads for %d records in 4 polls, want at most 12", reads, gen-1)
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
	through := st.Current().Generation()
	for i := 0; i < n; i++ {
		if _, ok, err := c.Next(through); !ok || err != nil {
			t.Fatalf("record %d: ok=%v err=%v", i, ok, err)
		}
	}
	if _, ok, err := c.Next(through + 1); ok || err != nil {
		t.Fatalf("past the tail: ok=%v err=%v", ok, err)
	}
	if stats := countOps(ffs, vfs.OpStat, "wal-"); stats > 2 {
		t.Fatalf("%d stats for %d records, want at most 2", stats, n)
	}
}
