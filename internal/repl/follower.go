package repl

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
	"repro/internal/vfs"
)

// Tailer backoff defaults: reconnect quickly after a blip, back off
// exponentially while the primary stays unreachable. Same shape as the
// store's degraded-mode prober.
const (
	DefaultBackoff    = 200 * time.Millisecond
	DefaultBackoffMax = 15 * time.Second
)

// errRebootstrap is the internal signal that the local state has diverged
// from the primary and must be discarded and rebuilt from the segment.
var errRebootstrap = errors.New("repl: position diverged, re-bootstrap required")

// Config configures a Follower.
type Config struct {
	// Upstream is the primary's base URL, e.g. "http://primary:8372".
	Upstream string
	// DB is the database name on the primary.
	DB string
	// Dir is the local storage directory for the replica.
	Dir string
	// Store tunes the local store (fsync policy, checkpoint threshold,
	// filesystem, ...).
	Store store.Options
	// Client is the HTTP client for feed requests; nil selects a default
	// with no overall timeout (the WAL stream is long-lived by design).
	Client *http.Client
	// Backoff and BackoffMax tune the reconnect schedule; zero selects
	// DefaultBackoff / DefaultBackoffMax.
	Backoff    time.Duration
	BackoffMax time.Duration
	// Logf, when set, receives progress lines (bootstraps, resumes,
	// reconnects).
	Logf func(format string, args ...any)
	// OnSwap is called with the new store after a re-bootstrap replaced
	// the local state. The previous store is already closed; the caller
	// must atomically switch its readers over.
	OnSwap func(*store.Store)
}

// Follower replicates one database from a primary: it owns the local
// store, the tail connection, and the re-bootstrap decision.
type Follower struct {
	cfg    Config
	client *http.Client
	fsys   vfs.FS

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu           sync.Mutex
	st           *store.Store
	epoch        string
	connected    bool
	primaryGen   uint64
	pendingBytes uint64
	lastContact  time.Time
	lastErr      error
	bootstraps   int
}

// Status is a point-in-time snapshot of a follower's replication state.
type Status struct {
	// Role is the local store's role: "follower", or "primary" after
	// promotion.
	Role     string
	Upstream string
	Database string
	// Epoch is the primary lineage the local state was replicated from.
	Epoch string
	// Connected reports whether the WAL tail stream is currently up.
	Connected bool
	// Generation is the last applied generation; WALBase and Record are
	// the equivalent chain position (Record records applied of the local
	// WAL based at WALBase).
	Generation uint64
	WALBase    uint64
	Record     int
	// PrimaryGeneration is the primary's generation as of the last frame
	// received; LagRecords and LagBytes measure the distance to it.
	// LastContact is when that frame arrived — time since it bounds how
	// stale the lag numbers themselves are.
	PrimaryGeneration uint64
	LagRecords        uint64
	LagBytes          uint64
	LastContact       time.Time
	// Bootstraps counts full segment bootstraps (1 for a fresh follower;
	// more mean divergence was detected and healed).
	Bootstraps int
	// LastError is the most recent tail failure, cleared on reconnect.
	LastError string
}

// New prepares a follower. Call Open to bootstrap-or-resume the local
// store, then Run to start tailing.
func New(cfg Config) (*Follower, error) {
	if cfg.Upstream == "" || cfg.DB == "" || cfg.Dir == "" {
		return nil, errors.New("repl: Upstream, DB, and Dir are all required")
	}
	if _, err := url.Parse(cfg.Upstream); err != nil {
		return nil, fmt.Errorf("repl: upstream URL: %w", err)
	}
	cfg.Upstream = strings.TrimRight(cfg.Upstream, "/")
	f := &Follower{cfg: cfg, client: cfg.Client, done: make(chan struct{})}
	if f.client == nil {
		f.client = &http.Client{}
	}
	f.fsys = vfs.Or(cfg.Store.FS)
	f.ctx, f.cancel = context.WithCancel(context.Background())
	return f, nil
}

func (f *Follower) logf(format string, args ...any) {
	if f.cfg.Logf != nil {
		f.cfg.Logf(format, args...)
	}
}

// Open establishes the local store: it resumes from an existing replica
// directory when one matches this upstream and database (no network
// needed — a follower restarts fine while the primary is down), and
// bootstraps from the primary's segment otherwise. The returned store is
// the one the caller should serve reads from until OnSwap replaces it.
func (f *Follower) Open() (*store.Store, error) {
	if meta, err := ReadMeta(f.fsys, f.cfg.Dir); err == nil &&
		meta.Upstream == f.cfg.Upstream && meta.Database == f.cfg.DB {
		st, err := store.Open(f.cfg.Dir, f.cfg.Store)
		if err == nil {
			st.SetFollower()
			f.mu.Lock()
			f.st, f.epoch = st, meta.Epoch
			f.mu.Unlock()
			f.logf("repl: resuming %s from %s at generation %d", f.cfg.DB, f.cfg.Dir, st.Current().Generation())
			return st, nil
		}
		f.logf("repl: local replica state unusable (%v); bootstrapping fresh", err)
	}
	st, err := f.bootstrap(f.ctx)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.st = st
	f.mu.Unlock()
	return st, nil
}

// Run starts the tail loop. Call after Open.
func (f *Follower) Run() {
	go f.run()
}

// store returns the current local store.
func (f *Follower) store() *store.Store {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.st
}

// bootstrap downloads the newest segment, replaces the local storage
// files with it, and opens a fresh follower store on top.
func (f *Follower) bootstrap(ctx context.Context) (*store.Store, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.cfg.Upstream+"/v1/replication/"+url.PathEscape(f.cfg.DB)+"/segment", nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("repl: fetch segment: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("repl: fetch segment: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("repl: fetch segment: %w", err)
	}
	epoch := resp.Header.Get("X-Replication-Epoch")

	// Replace whatever state was here — it is either absent or proven
	// divergent — with the validated segment, and mark the directory as a
	// replica BEFORE the store opens it, so a crash between these steps
	// still reads as a replica.
	gen, err := store.ResetFromSegment(f.fsys, f.cfg.Dir, data)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	if err := WriteMeta(f.fsys, f.cfg.Dir, Meta{Upstream: f.cfg.Upstream, Database: f.cfg.DB, Epoch: epoch}); err != nil {
		return nil, err
	}
	st, err := store.Open(f.cfg.Dir, f.cfg.Store)
	if err != nil {
		return nil, fmt.Errorf("repl: bootstrap: %w", err)
	}
	st.SetFollower()
	f.mu.Lock()
	f.epoch = epoch
	f.bootstraps++
	// The segment download itself is contact with the primary; lag clocks
	// start from here, not from zero.
	f.lastContact = time.Now()
	f.mu.Unlock()
	f.logf("repl: bootstrapped %s into %s at generation %d", f.cfg.DB, f.cfg.Dir, gen)
	return st, nil
}

// run is the tail loop: stream, and on any failure reconnect with
// jittered exponential backoff; on divergence, re-bootstrap.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.cfg.Backoff
	if backoff <= 0 {
		backoff = DefaultBackoff
	}
	maxBackoff := f.cfg.BackoffMax
	if maxBackoff <= 0 {
		maxBackoff = DefaultBackoffMax
	}
	delay := backoff
	for f.ctx.Err() == nil {
		progressed, err := f.streamOnce(f.ctx)
		f.mu.Lock()
		f.connected = false
		if err != nil && f.ctx.Err() == nil {
			f.lastErr = err
		}
		f.mu.Unlock()
		if f.ctx.Err() != nil {
			return
		}
		if errors.Is(err, errRebootstrap) {
			f.logf("repl: %s diverged from %s; re-bootstrapping", f.cfg.DB, f.cfg.Upstream)
			if st, berr := f.bootstrap(f.ctx); berr == nil {
				old := f.store()
				f.mu.Lock()
				f.st = st
				f.lastErr = nil
				f.mu.Unlock()
				if f.cfg.OnSwap != nil {
					f.cfg.OnSwap(st)
				}
				old.Close()
				delay = backoff
				continue
			} else if f.ctx.Err() == nil {
				f.mu.Lock()
				f.lastErr = berr
				f.mu.Unlock()
			}
		}
		if progressed {
			delay = backoff
		}
		select {
		case <-f.ctx.Done():
			return
		case <-time.After(jitter(delay)):
		}
		delay *= 2
		if delay > maxBackoff {
			delay = maxBackoff
		}
	}
}

// jitter spreads a delay uniformly over [d/2, d] so followers cut off by
// the same outage do not reconnect in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= time.Microsecond {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// streamOnce opens one WAL tail connection from the current local
// position and applies frames until the stream breaks. progressed reports
// whether any record was applied (resets the reconnect backoff).
func (f *Follower) streamOnce(ctx context.Context) (progressed bool, err error) {
	st := f.store()
	d := st.Durability()
	base := d.Generation - uint64(d.WALRecords)
	f.mu.Lock()
	epoch := f.epoch
	f.mu.Unlock()

	q := url.Values{}
	q.Set("from", fmt.Sprintf("%d,%d", base, d.WALRecords))
	q.Set("epoch", epoch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		f.cfg.Upstream+"/v1/replication/"+url.PathEscape(f.cfg.DB)+"/wal?"+q.Encode(), nil)
	if err != nil {
		return false, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("repl: connect: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return false, fmt.Errorf("repl: wal stream: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	f.mu.Lock()
	f.connected = true
	f.lastErr = nil
	f.lastContact = time.Now()
	f.mu.Unlock()

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var buf []byte
	for {
		fr, err := readFrame(br, &buf)
		if err != nil {
			// EOF, a torn frame, or a failed checksum: the connection is
			// over. Nothing partial was applied — a record only reaches the
			// store after its frame fully validated.
			return progressed, fmt.Errorf("repl: stream: %w", err)
		}
		switch fr.typ {
		case FrameRecord:
			if _, err := f.store().ApplyReplicated(fr.gen, fr.payload); err != nil {
				if errors.Is(err, store.ErrReplicaGap) {
					return progressed, errRebootstrap
				}
				return progressed, err
			}
			progressed = true
			f.mu.Lock()
			f.primaryGen = fr.aux
			f.lastContact = time.Now()
			f.mu.Unlock()
		case FrameHeartbeat:
			f.mu.Lock()
			f.primaryGen = fr.gen
			f.pendingBytes = fr.aux
			f.lastContact = time.Now()
			f.mu.Unlock()
		case FrameRebootstrap:
			return progressed, errRebootstrap
		}
	}
}

// Status reports the follower's replication state.
func (f *Follower) Status() Status {
	f.mu.Lock()
	st := f.st
	s := Status{
		Role:              store.RoleFollower,
		Upstream:          f.cfg.Upstream,
		Database:          f.cfg.DB,
		Epoch:             f.epoch,
		Connected:         f.connected,
		PrimaryGeneration: f.primaryGen,
		LagBytes:          f.pendingBytes,
		LastContact:       f.lastContact,
		Bootstraps:        f.bootstraps,
	}
	if f.lastErr != nil {
		s.LastError = f.lastErr.Error()
	}
	f.mu.Unlock()
	if st != nil {
		d := st.Durability()
		s.Role = d.Role
		s.Generation = d.Generation
		s.WALBase = d.Generation - uint64(d.WALRecords)
		s.Record = d.WALRecords
		if s.PrimaryGeneration > s.Generation {
			s.LagRecords = s.PrimaryGeneration - s.Generation
		}
	}
	return s
}

// Promote stops the tailer, seals the local WAL tail, switches the store
// to the primary role, and removes the replica marker — in that order, so
// a crash anywhere leaves the directory a replica (the safe identity).
// The store keeps serving throughout; after Promote it accepts writes.
func (f *Follower) Promote() error {
	f.cancel()
	<-f.done
	st := f.store()
	if err := st.Promote(); err != nil {
		return err
	}
	if err := RemoveMeta(f.fsys, f.cfg.Dir); err != nil {
		return fmt.Errorf("repl: promote: %w", err)
	}
	f.logf("repl: promoted %s at generation %d", f.cfg.Dir, st.Current().Generation())
	return nil
}

// Close stops the tailer and closes the local store. The served
// snapshots stay valid (they are immutable).
func (f *Follower) Close() error {
	f.cancel()
	<-f.done
	return f.store().Close()
}
