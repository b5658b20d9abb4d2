package store

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/wal"
)

// The durable write path. Every batch a durable store accepts — a
// primary's Append and a follower's ApplyReplicated alike — goes through
// commitLocked: admission, the WAL commit, the in-memory apply in WAL
// record order, and the auto-checkpoint trigger. The invariant recovery
// depends on is that the spine is exactly the WAL's records applied in
// sequence (dict interning and upsert resolution are order-sensitive).
//
// Phases, per batch:
//
//  1. Admission (under mu): wait out a checkpoint quiesce, reject if
//     closed, in the wrong role, or degraded — and, for a follower, if
//     the batch does not produce the next generation. Pin the WAL handle
//     and its base, inFlight++.
//  2. Commit: hand the encoded batch to wal.Log.Commit, which returns the
//     record's 1-based number rec in the log. Under SyncPolicy=always the
//     commit waits for an fsync, so mu is released across it: concurrent
//     appenders reach the WAL's committer together and share one write +
//     one fsync. The weaker policies commit under mu — a buffered write
//     is cheaper than the handoff.
//  3. Apply (under mu): wait until the spine generation reaches
//     base+rec-1 — every earlier record applied — then apply and publish
//     base+rec. Successes form a strict prefix of the record sequence (a
//     batch never partially succeeds and failure poisons the log), so
//     every predecessor either applied or never committed, and the wait
//     always terminates. Under mu the wait is already satisfied.
//
// A WAL failure flips the store degraded ONCE (enterDegradedLocked
// ignores re-entry) and every failed caller gets the typed root error
// wrapped in ErrDegraded; a close race surfaces wal.ErrClosed without
// degrading.

// encPool recycles batch-encoding buffers: a primary encodes before it
// takes mu, so concurrent appenders cannot share one buffer.
var encPool = sync.Pool{New: func() any { return new([]byte) }}

// commitLocked logs payload (the encoding of records/upsert) to the WAL
// and applies it. target is the generation a replicated batch must
// produce, or 0 for a primary append. Caller holds st.mu; commitLocked
// may release it while waiting and returns with it held.
func (st *Store) commitLocked(payload []byte, records []Record, upsert bool, target uint64) (*Snapshot, error) {
	d := st.dur
	for d.quiescing && !d.closed {
		d.cond.Wait()
	}
	switch gen := st.cur.Load().gen; {
	case d.closed:
		return nil, wal.ErrClosed
	case target == 0 && st.follower:
		return nil, ErrNotPrimary
	case target != 0 && !st.follower:
		return nil, errors.New("store: ApplyReplicated on a non-follower store")
	case d.degraded != nil:
		// Fast rejection: no I/O, the prober owns retrying.
		return nil, degradedError(d.degraded)
	case target != 0 && target != gen+1:
		return nil, fmt.Errorf("%w: batch targets generation %d, follower is at %d", ErrReplicaGap, target, gen)
	}
	// Pin the WAL this commit goes to: quiescing guarantees no rotation
	// happens while inFlight > 0, so base stays the handle's base.
	w, base := d.wal, d.walBase
	d.inFlight++
	var rec int
	var err error
	if d.walOpt.Policy == wal.SyncAlways {
		st.mu.Unlock()
		rec, err = w.Commit(payload)
		st.mu.Lock()
	} else {
		rec, err = w.Commit(payload)
	}
	if err == nil && target != 0 && base+uint64(rec) != target {
		// The follower's WAL and spine disagree. Degrading makes the
		// prober truncate the WAL back to the published generation,
		// which drops this unapplied record.
		err = fmt.Errorf("%w: WAL record %d on base %d does not produce generation %d", ErrReplicaGap, rec, base, target)
	}
	if err != nil {
		d.inFlight--
		d.cond.Broadcast()
		if errors.Is(err, wal.ErrClosed) {
			// A Close racing the commit, not a sick disk: fail this
			// batch without degrading the store.
			return nil, err
		}
		st.enterDegradedLocked(err)
		return nil, degradedError(err)
	}
	for st.cur.Load().gen != base+uint64(rec)-1 {
		d.cond.Wait()
	}
	snap := st.applyLocked(records, upsert)
	d.inFlight--
	d.cond.Broadcast()
	if !d.closed && d.needsCheckpoint() {
		// Best-effort: the batch is durable already, so a checkpoint
		// failure (reported via Durability, retried by the prober) must
		// not fail it.
		if err := st.checkpointQuiesced(true); err != nil && !errors.Is(err, wal.ErrClosed) {
			st.startProberLocked()
		}
	}
	return snap, nil
}
