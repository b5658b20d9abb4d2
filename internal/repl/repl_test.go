package repl

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/seq"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// storeSource adapts a test's primary store to the feed's Source. The
// feed reads it from the HTTP server's goroutines while a test may swap
// the store and epoch (replace), so both sit behind mu.
type storeSource struct {
	dir   string
	mu    sync.Mutex
	st    *store.Store
	epoch string
}

func (s *storeSource) Dir() string        { return s.dir }
func (s *storeSource) Generation() uint64 { return s.store().Current().Generation() }
func (s *storeSource) Checkpoint() error  { return s.store().Checkpoint() }

func (s *storeSource) Epoch() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

func (s *storeSource) store() *store.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.st
}

// replace points the source at a new store lineage.
func (s *storeSource) replace(st *store.Store, epoch string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st, s.epoch = st, epoch
}

// testPrimary is a minimal primary: a durable store plus an httptest
// server exposing the replication feed.
type testPrimary struct {
	st  *store.Store
	src *storeSource
	srv *httptest.Server
}

func newTestPrimary(t *testing.T, dir string) *testPrimary {
	t.Helper()
	st, err := store.Open(dir, store.Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	src := &storeSource{st: st, dir: dir, epoch: "epoch-1"}
	feed := &Feed{Src: src, Poll: time.Millisecond, Heartbeat: 20 * time.Millisecond}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/replication/db/segment", feed.ServeSegment)
	mux.HandleFunc("/v1/replication/db/wal", feed.ServeWAL)
	srv := httptest.NewServer(mux)
	p := &testPrimary{st: st, src: src, srv: srv}
	t.Cleanup(func() { srv.Close(); st.Close() })
	return p
}

func (p *testPrimary) append(t *testing.T, i int) {
	t.Helper()
	if _, err := p.st.Append([]store.Record{
		{Label: fmt.Sprintf("s%d", i%4), Events: []string{"a", fmt.Sprintf("e%d", i), "b"}},
	}, true); err != nil {
		t.Fatal(err)
	}
}

// waitConverged polls until the follower reaches the primary's current
// generation (and the primary's store content), or the deadline passes.
func waitConverged(t *testing.T, f *Follower, p *testPrimary) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		fs := f.store().Current()
		ps := p.st.Current()
		if fs.Generation() == ps.Generation() &&
			reflect.DeepEqual(fs.DB().Seqs, ps.DB().Seqs) &&
			reflect.DeepEqual(fs.DB().Labels, ps.DB().Labels) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower never converged: follower gen %d, primary gen %d (status %+v)",
		f.store().Current().Generation(), p.st.Current().Generation(), f.Status())
}

func newTestFollower(t *testing.T, p *testPrimary, dir string, client *http.Client) *Follower {
	t.Helper()
	f, err := New(Config{
		Upstream: p.srv.URL, DB: "db", Dir: dir,
		Store:   store.Options{SyncPolicy: wal.SyncNever},
		Client:  client,
		Backoff: time.Millisecond, BackoffMax: 20 * time.Millisecond,
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFollowerBootstrapAndTail(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	for i := 0; i < 6; i++ {
		p.append(t, i)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	f := newTestFollower(t, p, fdir, nil)
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run()
	waitConverged(t, f, p)

	// Live appends stream through.
	for i := 6; i < 12; i++ {
		p.append(t, i)
	}
	waitConverged(t, f, p)

	s := f.Status()
	if s.Role != store.RoleFollower || s.Database != "db" || s.Bootstraps != 1 {
		t.Fatalf("status %+v", s)
	}
	if s.Generation != p.st.Current().Generation() {
		t.Fatalf("status generation %d, primary %d", s.Generation, p.st.Current().Generation())
	}

	// The follower's store rejects writes.
	if _, err := f.store().Append([]store.Record{{Events: []string{"x"}}}, false); !errors.Is(err, store.ErrNotPrimary) {
		t.Fatalf("follower Append err=%v", err)
	}
}

func TestFollowerResumesFromLocalPosition(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	for i := 0; i < 5; i++ {
		p.append(t, i)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	f := newTestFollower(t, p, fdir, nil)
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.Run()
	waitConverged(t, f, p)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// More appends while the follower is down.
	for i := 5; i < 9; i++ {
		p.append(t, i)
	}

	// Restart: must resume (no new bootstrap) and catch up.
	f2 := newTestFollower(t, p, fdir, nil)
	if _, err := f2.Open(); err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	f2.Run()
	waitConverged(t, f2, p)
	if got := f2.Status().Bootstraps; got != 0 {
		t.Fatalf("restart bootstrapped %d times, want 0 (resume)", got)
	}
}

func TestFollowerRebootstrapsOnEpochChange(t *testing.T) {
	pdir := filepath.Join(t.TempDir(), "primary")
	p := newTestPrimary(t, pdir)
	for i := 0; i < 4; i++ {
		p.append(t, i)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	var swapped sync.WaitGroup
	swapped.Add(1)
	f := newTestFollower(t, p, fdir, nil)
	f.cfg.OnSwap = func(*store.Store) { swapped.Done() }
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.Run()
	waitConverged(t, f, p)

	// Replace the database wholesale: new store contents, new epoch. The
	// follower's position is meaningless in the new lineage and must be
	// answered with a re-bootstrap.
	if err := p.st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Create(pdir, seq.NewDB(), store.Options{SyncPolicy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	p.st = st2
	p.src.replace(st2, "epoch-2")
	t.Cleanup(func() { st2.Close() })
	if _, err := st2.Append([]store.Record{{Label: "fresh", Events: []string{"q", "r"}}}, true); err != nil {
		t.Fatal(err)
	}

	swapped.Wait()
	waitConverged(t, f, p)
	if got := f.Status(); got.Bootstraps != 2 || got.Epoch != "epoch-2" {
		t.Fatalf("status after epoch change: %+v", got)
	}
}

func TestFollowerPromote(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	for i := 0; i < 3; i++ {
		p.append(t, i)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	f := newTestFollower(t, p, fdir, nil)
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.Run()
	waitConverged(t, f, p)
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	st := f.store()
	defer st.Close()
	if st.Role() != store.RolePrimary {
		t.Fatalf("role after promote: %s", st.Role())
	}
	if HasMeta(vfs.OS, fdir) {
		t.Fatal("replica marker survived promotion")
	}
	if _, err := st.Append([]store.Record{{Events: []string{"post-promote"}}}, false); err != nil {
		t.Fatalf("Append after promote: %v", err)
	}
	// The directory now recovers as an ordinary primary.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(fdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Role() != store.RolePrimary {
		t.Fatalf("reopened role: %s", st2.Role())
	}
}

func TestPromoteDirOffline(t *testing.T) {
	p := newTestPrimary(t, filepath.Join(t.TempDir(), "primary"))
	for i := 0; i < 3; i++ {
		p.append(t, i)
	}
	fdir := filepath.Join(t.TempDir(), "follower")
	f := newTestFollower(t, p, fdir, nil)
	if _, err := f.Open(); err != nil {
		t.Fatal(err)
	}
	f.Run()
	waitConverged(t, f, p)
	wantGen := p.st.Current().Generation()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	gen, err := PromoteDir(fdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if gen != wantGen {
		t.Fatalf("promoted at generation %d, want %d", gen, wantGen)
	}
	if HasMeta(vfs.OS, fdir) {
		t.Fatal("replica marker survived offline promotion")
	}
	// Promoting a non-replica directory must refuse.
	if _, err := PromoteDir(fdir, store.Options{}); err == nil {
		t.Fatal("second promotion succeeded on a non-replica directory")
	}
}
