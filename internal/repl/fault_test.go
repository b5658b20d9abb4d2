package repl

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// cuttingTransport breaks WAL stream connections at scripted byte
// offsets: connection i delivers cuts[i] body bytes and then fails.
// Connections after the script is exhausted pass through untouched, so
// the follower's final reconnect always has a clean path to convergence.
type cuttingTransport struct {
	base http.RoundTripper

	mu   sync.Mutex
	cuts []int64
	next int
}

func (c *cuttingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(req)
	if err != nil || !strings.HasSuffix(req.URL.Path, "/wal") {
		return resp, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.next >= len(c.cuts) {
		return resp, nil
	}
	n := c.cuts[c.next]
	c.next++
	resp.Body = &cutBody{inner: resp.Body, remaining: n}
	return resp, nil
}

func (c *cuttingTransport) exhausted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.next >= len(c.cuts)
}

// cutBody delivers up to remaining bytes, then fails the read as a
// dropped connection would.
type cutBody struct {
	inner interface {
		Read([]byte) (int, error)
		Close() error
	}
	remaining int64
}

var errCut = errors.New("repl test: connection cut")

func (b *cutBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		b.inner.Close()
		return 0, errCut
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.inner.Read(p)
	b.remaining -= int64(n)
	if err == nil && b.remaining <= 0 {
		b.inner.Close()
		return n, errCut
	}
	return n, err
}

func (b *cutBody) Close() error { return b.inner.Close() }

// TestStreamCutSweep cuts the WAL feed at every byte offset of the first
// frames and at every frame boundary (±1) of a small workload, and
// asserts the follower reconverges to a database identical to the
// primary's after every cut — with no torn record ever applied (the
// follower's generation advances only through in-sequence, CRC-validated
// applies, so a torn apply would surface as divergence or a gap).
func TestStreamCutSweep(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	// Bootstrap the follower before the workload so every batch travels
	// the WAL stream.
	fdir := filepath.Join(t.TempDir(), "follower")

	// Frame sizes on the wire: header + encoded batch payload. Compute
	// the workload's exact frame boundaries so the sweep can target them.
	const batches = 10
	payloadLen := func(i int) int64 {
		rec := []store.Record{{Label: fmt.Sprintf("s%d", i%4), Events: []string{"a", fmt.Sprintf("e%d", i), "b"}}}
		return int64(len(encodeTestBatch(t, rec)))
	}
	var cuts []int64
	var off int64
	for i := 0; i < batches; i++ {
		frameLen := frameHeaderSize + payloadLen(i)
		if i < 3 {
			// Every byte offset inside the first frames: mid-header,
			// mid-payload, everywhere.
			for b := int64(0); b <= frameLen; b++ {
				cuts = append(cuts, off+b)
			}
		} else {
			// Frame boundaries and their neighbors for the rest.
			cuts = append(cuts, off-1, off, off+1)
		}
		off += frameLen
	}

	ct := &cuttingTransport{base: http.DefaultTransport, cuts: cuts}
	f := newTestFollower(t, p, fdir, &http.Client{Transport: ct})
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run()

	for i := 0; i < batches; i++ {
		p.append(t, i)
	}

	deadline := time.Now().Add(60 * time.Second)
	for !ct.exhausted() && time.Now().Before(deadline) {
		// Each reconnect consumes one scripted cut; keep the pipeline
		// moving until every cut point has been exercised.
		time.Sleep(time.Millisecond)
	}
	if !ct.exhausted() {
		t.Fatalf("sweep incomplete: %d of %d cuts exercised", ct.next, len(ct.cuts))
	}
	waitConverged(t, f, p)
	if s := f.Status(); s.Bootstraps != 1 {
		// Cuts are connection failures, not divergence: the follower must
		// resume from its local position every time, never re-bootstrap.
		t.Fatalf("sweep caused %d bootstraps, want 1", s.Bootstraps)
	}
}

// encodeTestBatch measures the exact on-wire batch payload by routing
// the records through a real store append and reading the frame back
// from its WAL — so the sweep's frame-boundary math cannot drift from
// the store's codec.
func encodeTestBatch(t *testing.T, records []store.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append(records, true); err != nil {
		t.Fatal(err)
	}
	r := store.NewChainReader(vfs.OS, dir, 2)
	defer r.Close()
	payload, ok, err := r.Next(st.Current().Generation())
	if err != nil || !ok {
		t.Fatalf("read batch back: ok=%v err=%v", ok, err)
	}
	return append([]byte(nil), payload...)
}

// TestFollowerLocalDiskFaultHeals injects a write fault into the
// follower's own WAL mid-stream: the apply degrades the local store, the
// tailer backs off, the store's prober heals the disk (truncating the
// unacknowledged frame), and the stream reconverges without losing or
// duplicating a record.
func TestFollowerLocalDiskFaultHeals(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	fdir := filepath.Join(t.TempDir(), "follower")
	ffs := vfs.NewFaultFS(vfs.OS)
	f, err := New(Config{
		Upstream: p.srv.URL, DB: "db", Dir: fdir,
		Store: store.Options{
			SyncPolicy: wal.SyncNever, FS: ffs,
			ProbeBackoff: time.Millisecond, ProbeBackoffMax: 10 * time.Millisecond,
		},
		Backoff: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run()

	for i := 0; i < 3; i++ {
		p.append(t, i)
	}
	waitConverged(t, f, p)

	// Fail the next WAL write on the follower's disk, then stream more.
	fault := ffs.AddFault(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", At: 0, Err: syscall.EIO})
	for i := 3; i < 8; i++ {
		p.append(t, i)
	}
	waitConverged(t, f, p)
	if !ffs.Fired(fault) {
		t.Fatal("fault never fired; the sweep proved nothing")
	}
	fs, ps := f.store().Current(), p.st.Current()
	if !reflect.DeepEqual(fs.DB().Seqs, ps.DB().Seqs) {
		t.Fatal("follower diverged after disk fault heal")
	}
}

// TestFeedSendsRecordRewrittenByHeal: the feed reads the primary's WAL in
// blocks, so a block can hold a complete frame the primary never
// acknowledged (its write landed, its fsync failed). The primary's heal
// truncates that frame and the next append writes a different record in
// its place; the feed must stream the new record, not the stale frame it
// read ahead.
func TestFeedSendsRecordRewrittenByHeal(t *testing.T) {
	dir := t.TempDir()
	ffs := vfs.NewFaultFS(vfs.OS)
	st, err := store.Open(dir, store.Options{
		SyncPolicy: wal.SyncAlways, FS: ffs, CheckpointWALBytes: -1,
		ProbeBackoff: time.Millisecond, ProbeBackoffMax: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	first := []store.Record{{Label: "acked", Events: []string{"a"}}}
	if _, err := st.Append(first, true); err != nil {
		t.Fatal(err)
	}
	acked := st.Current().Generation()
	walSize := func() int64 {
		t.Helper()
		fi, err := os.Stat(filepath.Join(dir, "wal-0000000000000001.log"))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	before := walSize()
	// Every sync fails until the faults are cleared: the append's frame
	// stays on disk unacknowledged, and the heal's disk probe fails too.
	// The two records have equal-length frames, so the file size does
	// not change either.
	dropped := []store.Record{{Label: "old", Events: []string{"x"}}}
	healed := []store.Record{{Label: "new", Events: []string{"y"}}}
	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, At: -1, Err: syscall.EIO})
	if _, err := st.Append(dropped, true); err == nil {
		t.Fatal("append with a failing fsync succeeded")
	}
	if walSize() <= before || st.Current().Generation() != acked {
		t.Fatal("the unacknowledged frame is not on disk; the test proves nothing")
	}

	src := &storeSource{st: st, dir: dir, epoch: "e"}
	feed := &Feed{Src: src, Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond}
	srv := httptest.NewServer(http.HandlerFunc(feed.ServeWAL))
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"?from=1,0&epoch=e", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	var buf []byte
	// nextRecord reads frames until a record frame.
	nextRecord := func() (gen uint64, payload []byte) {
		t.Helper()
		for {
			fr, err := readFrame(br, &buf)
			if err != nil {
				t.Fatalf("feed stream: %v", err)
			}
			if fr.typ == FrameRecord {
				return fr.gen, fr.payload
			}
		}
	}
	if gen, p := nextRecord(); gen != acked || !bytes.Equal(p, encodeTestBatch(t, first)) {
		t.Fatalf("first record: generation %d %q, want %d", gen, p, acked)
	}
	// Wait for a heartbeat: the feed has finished its round, holding the
	// unacknowledged frame in its read-ahead block.
	for {
		fr, err := readFrame(br, &buf)
		if err != nil {
			t.Fatalf("feed stream: %v", err)
		}
		if fr.typ == FrameHeartbeat {
			break
		}
		t.Fatalf("frame type %d before the heal, want a heartbeat", fr.typ)
	}

	ffs.ClearFaults()
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := st.Append(healed, true)
		if err == nil {
			break
		}
		if !errors.Is(err, store.ErrDegraded) || time.Now().After(deadline) {
			t.Fatalf("append after clearing the fault: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	gen, p := nextRecord()
	if bytes.Equal(p, encodeTestBatch(t, dropped)) {
		t.Fatalf("generation %d: the feed sent the frame the heal dropped", gen)
	}
	if gen != acked+1 || !bytes.Equal(p, encodeTestBatch(t, healed)) {
		t.Fatalf("record after the heal: generation %d %q, want %d", gen, p, acked+1)
	}
}

// TestWriteMetaAtomic: a replica marker whose rewrite fails keeps the
// previous marker readable, so a failed write never unmarks a replica.
func TestWriteMetaAtomic(t *testing.T) {
	dir := t.TempDir()
	old := Meta{Upstream: "http://p", Database: "db", Epoch: "e1"}
	if err := WriteMeta(vfs.OS, dir, old); err != nil {
		t.Fatal(err)
	}
	ffs := vfs.NewFaultFS(vfs.OS)
	ffs.AddFault(vfs.Fault{Op: vfs.OpRename, Path: MetaFile, At: 0, Err: syscall.EIO})
	if err := WriteMeta(ffs, dir, Meta{Upstream: "http://p", Database: "db", Epoch: "e2"}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WriteMeta with a failing rename: %v, want EIO", err)
	}
	if got, err := ReadMeta(vfs.OS, dir); err != nil || got != old {
		t.Fatalf("marker after a failed rewrite: %+v, %v; want %+v", got, err, old)
	}
}
