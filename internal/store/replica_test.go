package store

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"

	"repro/internal/seq"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// replicateDir copies the primary's state into a follower directory the
// way the repl package does: install the newest segment, then re-apply
// the WAL chain record by record through ApplyReplicated.
func replicateDir(t *testing.T, primaryDir, followerDir string, opt Options) *Store {
	t.Helper()
	data, segGen, ok, err := LatestSegment(vfs.OS, primaryDir)
	if err != nil || !ok {
		t.Fatalf("LatestSegment: ok=%v err=%v", ok, err)
	}
	gen, err := ResetFromSegment(vfs.OS, followerDir, data)
	if err != nil {
		t.Fatal(err)
	}
	if gen != segGen {
		t.Fatalf("ResetFromSegment gen=%d, want %d", gen, segGen)
	}
	f, err := Open(followerDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	f.SetFollower()

	// Tail the primary's chain from the follower's position. The primary
	// is closed, so every record on disk is acknowledged.
	c := NewChainReader(vfs.OS, primaryDir, f.Current().Generation()+1)
	defer c.Close()
	for {
		p, ok, err := c.Next(math.MaxUint64)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if _, err := f.ApplyReplicated(f.Current().Generation()+1, p); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// TestReplicaApplyMatchesPrimary replicates a primary's segment + WAL
// chain into a follower under each fsync policy; under always the
// follower's applies go through the out-of-lock commit path.
func TestReplicaApplyMatchesPrimary(t *testing.T) {
	for _, policy := range []wal.SyncPolicy{wal.SyncNever, wal.SyncAlways} {
		t.Run(policy.String(), func(t *testing.T) { testReplicaApplyMatchesPrimary(t, Options{SyncPolicy: policy}) })
	}
}

func testReplicaApplyMatchesPrimary(t *testing.T, opt Options) {
	primaryDir := filepath.Join(t.TempDir(), "primary")
	followerDir := filepath.Join(t.TempDir(), "follower")
	p, err := Open(primaryDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		if _, err := p.Append([]Record{
			{Label: fmt.Sprintf("s%d", i), Events: []string{"a", "b", "c"}},
			{Events: []string{"x", fmt.Sprintf("e%d", i)}},
		}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Append([]Record{{Label: "s1", Events: []string{"tail"}}}, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}

	f := replicateDir(t, primaryDir, followerDir, opt)
	defer f.Close()

	ps, fs := p.Current(), f.Current()
	if fs.Generation() != ps.Generation() {
		t.Fatalf("follower at generation %d, primary at %d", fs.Generation(), ps.Generation())
	}
	if !reflect.DeepEqual(fs.DB().Seqs, ps.DB().Seqs) || !reflect.DeepEqual(fs.DB().Labels, ps.DB().Labels) {
		t.Fatal("follower database differs from primary")
	}
	if got := f.Durability().Role; got != RoleFollower {
		t.Fatalf("Role=%q, want follower", got)
	}

	// The follower's directory must itself recover as a valid store.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	f2, err := Open(followerDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.Current().Generation() != ps.Generation() {
		t.Fatalf("reopened follower at generation %d, want %d", f2.Current().Generation(), ps.Generation())
	}
}

func TestFollowerRejectsWritesUntilPromoted(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFollower()
	if _, err := st.Append([]Record{{Events: []string{"a"}}}, false); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower Append err=%v, want ErrNotPrimary", err)
	}
	if st.Role() != RoleFollower {
		t.Fatalf("Role=%q", st.Role())
	}
	if err := st.Promote(); err != nil {
		t.Fatal(err)
	}
	if st.Role() != RolePrimary {
		t.Fatalf("Role after Promote=%q", st.Role())
	}
	if _, err := st.Append([]Record{{Events: []string{"a"}}}, false); err != nil {
		t.Fatalf("Append after Promote: %v", err)
	}
}

func TestFollowerGroupCommitRejects(t *testing.T) {
	dir := t.TempDir()
	// SyncAlways releases the store mutex across the WAL commit.
	st, err := Open(dir, Options{SyncPolicy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFollower()
	if _, err := st.Append([]Record{{Events: []string{"a"}}}, false); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("grouped follower Append err=%v, want ErrNotPrimary", err)
	}
}

func TestApplyReplicatedGap(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.SetFollower()
	payload := encodeBatch(nil, []Record{{Events: []string{"a"}}}, false)
	cur := st.Current().Generation()
	if _, err := st.ApplyReplicated(cur+2, payload); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap apply err=%v, want ErrReplicaGap", err)
	}
	if _, err := st.ApplyReplicated(cur, payload); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("stale apply err=%v, want ErrReplicaGap", err)
	}
	if _, err := st.ApplyReplicated(0, payload); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("generation-0 apply err=%v, want ErrReplicaGap", err)
	}
	if _, err := st.ApplyReplicated(cur+1, payload); err != nil {
		t.Fatalf("in-sequence apply: %v", err)
	}
	if _, err := st.ApplyReplicated(cur+2, []byte{0xFF}); err == nil {
		t.Fatal("corrupt payload applied")
	}
	if st.Current().Generation() != cur+1 {
		t.Fatalf("generation %d after corrupt apply, want %d", st.Current().Generation(), cur+1)
	}
}

func TestChainWALFileResolution(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 4; i++ {
		if _, err := st.Append([]Record{{Events: []string{"a"}}}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil { // chain now: wal-5 (empty), segment at 5
		t.Fatal(err)
	}
	if _, err := st.Append([]Record{{Events: []string{"b"}}}, false); err != nil {
		t.Fatal(err)
	}
	// Generation 6 is record 1 of the WAL based at 5.
	c := NewChainReader(vfs.OS, dir, 6)
	defer c.Close()
	p, ok, err := c.Next(st.Current().Generation())
	if err != nil || !ok {
		t.Fatalf("chain read of generation 6: ok=%v err=%v", ok, err)
	}
	if c.base != 5 || c.rd.Records() != 1 {
		t.Fatalf("base=%d record=%d, want 5, 1", c.base, c.rd.Records())
	}
	if recs, _, err := decodeBatch(p); err != nil || !reflect.DeepEqual(recs[0].Events, []string{"b"}) {
		t.Fatalf("generation 6 record = %+v, %v", recs, err)
	}
	// Generation 5 predates the retained chain (swept by the checkpoint).
	swept := NewChainReader(vfs.OS, dir, 5)
	defer swept.Close()
	if _, ok, err := swept.Next(st.Current().Generation()); ok || !errors.Is(err, ErrChainGap) {
		t.Fatalf("swept position: ok=%v err=%v, want ErrChainGap", ok, err)
	}
}

// TestInstallSegmentAtomic: a segment whose install fails at the rename
// leaves neither the segment nor its temp file behind, so recovery never
// sees it.
func TestInstallSegmentAtomic(t *testing.T) {
	db, err := seq.ParseString("S1: AB\n", seq.FormatChars)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddFault(vfs.Fault{Op: vfs.OpRename, Path: segmentSuffix, At: 0, Err: syscall.EIO})
	if _, err := ResetFromSegment(ffs, dir, encodeSegment(3, db)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("install with a failing rename: %v, want EIO", err)
	}
	if entries, _ := ffs.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed install left %d files", len(entries))
	}
	if gen, err := ResetFromSegment(ffs, dir, encodeSegment(3, db)); err != nil || gen != 3 {
		t.Fatalf("install: gen=%d err=%v", gen, err)
	}
	if _, gen, ok, err := LatestSegment(vfs.OS, dir); err != nil || !ok || gen != 3 {
		t.Fatalf("LatestSegment: gen=%d ok=%v err=%v", gen, ok, err)
	}
}
