package store

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/vfs"
	"repro/internal/wal"
)

// Degraded mode: a WAL write or sync failure (ENOSPC, EIO, a dying disk)
// must not take the whole database down — the published snapshots are
// immutable and perfectly servable. Instead of failing every call with
// the same poisoned-log error, the store flips read-only:
//
//   - Append rejects immediately with an error wrapping ErrDegraded and
//     the root cause (no further disk I/O, so a full disk cannot make
//     appends slow as well as broken);
//   - reads and mining continue on the last published snapshot;
//   - a background prober retries recovery with exponential backoff and
//     jitter, capped at ProbeBackoffMax, and clears degradation when the
//     disk accepts durable writes again.
//
// Healing is more than reopening the WAL. A failed fsync can leave the
// rejected append's frame COMPLETE on disk (the write succeeded; only
// the sync failed), and that frame was never applied or acknowledged.
// Replaying it after recovery would advance the store one generation
// past what the segment/WAL chain accounts for, which a later rotation
// turns into a fatal "WAL chain gap". So the prober reopens the log and
// truncates it back to exactly the records the published generation
// accounts for, atomically discarding unacknowledged tails.
//
// The same prober also retries a failed auto-checkpoint (a condition
// that previously persisted silently until the next append happened to
// cross the threshold again).

// ErrDegraded marks an append rejected because the store is in
// read-only degraded mode. The root cause (ENOSPC, EIO, ...) stays
// reachable through errors.Is/As on the wrapped error.
var ErrDegraded = errors.New("store: degraded (read-only)")

// Prober backoff defaults: first retry quickly (a transient hiccup heals
// in one beat), then back off exponentially so a durably full disk costs
// one tiny I/O per half-minute.
const (
	DefaultProbeBackoff    = 100 * time.Millisecond
	DefaultProbeBackoffMax = 30 * time.Second
)

// degradedError wraps a degradation root cause so callers can branch on
// errors.Is(err, ErrDegraded) and still reach the errno underneath.
func degradedError(cause error) error {
	return fmt.Errorf("%w: %w", ErrDegraded, cause)
}

// enterDegradedLocked flips the store read-only and starts the recovery
// prober. Caller holds st.mu.
func (st *Store) enterDegradedLocked(cause error) {
	if st.dur.degraded != nil {
		return
	}
	st.dur.degraded = cause
	st.startProberLocked()
}

// startProberLocked launches the background recovery prober unless one
// is already running. Caller holds st.mu.
func (st *Store) startProberLocked() {
	d := st.dur
	if d.proberStop != nil || d.closed {
		// A closed store never heals (and must not leak a goroutine that
		// outlives Close's shutdown handshake).
		return
	}
	first := d.probeBackoff
	if first <= 0 {
		first = DefaultProbeBackoff
	}
	cap := d.probeBackoffMax
	if cap <= 0 {
		cap = DefaultProbeBackoffMax
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	d.proberStop, d.proberDone = stop, done
	go st.probeLoop(first, cap, stop, done)
}

// probeLoop retries recovery until the store is healthy or Close asks it
// to stop. The stop/done channels are parameters (not read from the
// struct) because Close nils the fields while this goroutine drains —
// the same handshake the WAL's sync loop uses.
func (st *Store) probeLoop(backoff, cap time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTimer(jitter(backoff))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		st.mu.Lock()
		healthy := st.probeLocked()
		if healthy {
			// Clear the handshake so the next failure starts a fresh
			// prober — unless Close already took the channels, in which
			// case it owns the shutdown and we just exit.
			if st.dur.proberDone != nil {
				st.dur.proberStop, st.dur.proberDone = nil, nil
			}
			st.mu.Unlock()
			return
		}
		st.mu.Unlock()
		backoff *= 2
		if backoff > cap {
			backoff = cap
		}
		t.Reset(jitter(backoff))
	}
}

// probeLocked attempts one recovery pass. Returns true when the store is
// fully healthy again: not degraded and no checkpoint pending retry.
func (st *Store) probeLocked() bool {
	d := st.dur
	if d.inFlight > 0 || d.quiescing {
		// Group commits are still flowing through the pipeline (committed
		// records awaiting their in-order apply, or a checkpoint holding
		// the quiesce). Healing truncates the WAL to the applied
		// generation and a checkpoint rotates walBase — either would
		// corrupt their accounting. Retry at the next backoff.
		return false
	}
	if d.degraded != nil && !st.healLocked() {
		return false
	}
	if d.checkpointErr != nil {
		if err := st.checkpointLocked(); err != nil {
			return false
		}
	}
	return d.degraded == nil && d.checkpointErr == nil
}

// healLocked attempts to leave degraded mode. The poisoned log is
// replaced only after every step succeeds; any failure keeps the store
// degraded for the next (backed-off) probe.
func (st *Store) healLocked() bool {
	d := st.dur
	// 1. Prove the disk accepts durable writes with a scratch file.
	// Without this, healing would flap: reopening the WAL succeeds even
	// on a full disk (the file already exists), and the next append
	// would immediately re-degrade.
	if err := probeDisk(d.fsys, d.dir); err != nil {
		return false
	}
	// 2. Reopen the log keeping exactly the records the published
	// generation accounts for: one pass finds that record count and
	// drops everything after it — complete but unacknowledged frames
	// (see the package comment above) and any torn tail alike.
	path := d.wal.Path()
	d.absorbCommitStats() // the handle is being replaced; keep its totals
	_ = d.wal.Close()     // already poisoned; the sticky error is expected
	nw, err := wal.OpenPrefix(path, d.walOpt, int(st.cur.Load().gen-d.walBase))
	if err != nil {
		return false
	}
	d.wal = nw
	d.degraded = nil
	return true
}

// probeDisk writes, fsyncs, and removes a scratch file in dir, proving
// the filesystem accepts durable writes again.
func probeDisk(fsys vfs.FS, dir string) error {
	f, err := fsys.CreateTemp(dir, ".probe")
	if err != nil {
		return err
	}
	name := f.Name()
	if _, err := f.Write([]byte("probe")); err != nil {
		f.Close()
		fsys.Remove(name)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(name)
		return err
	}
	return fsys.Remove(name)
}

// jitter spreads a delay uniformly over [d/2, d] so stores degraded by
// the same outage do not probe in lockstep.
func jitter(d time.Duration) time.Duration {
	if d <= time.Microsecond {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}
