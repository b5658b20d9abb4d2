// Package store is the snapshot storage engine under the miner: it owns a
// sequence database that grows over time and publishes its state as a
// lineage of immutable snapshots. A snapshot is a sealed seq.DB plus its
// inverted indexes and a generation number; miners always run against one
// snapshot, so mining concurrently with appends is safe by construction —
// no locks, no prepare step, no torn reads.
//
// Appends never re-derive old state: the per-sequence layout of seq.Index
// (one table per sequence) means appending sequences never touches
// existing tables, and appending events to an existing sequence
// re-tabulates only that sequence. Index extension reuses the parent
// snapshot's tables (seq.Index.Extend); the event dictionary is cloned
// copy-on-write only when a batch introduces new event names; sequence
// and label storage grows amortized in place, with published snapshots
// holding capacity-clipped slice headers that can never observe later
// writes; and summary statistics are maintained incrementally. The
// per-generation cost is O(batch events) plus O(N) slice-header
// bookkeeping (copying ~100 bytes of headers per existing sequence for
// the extended index — never re-reading sequence contents), which is what
// makes a 1-sequence append to an indexed Quest database ~two orders of
// magnitude cheaper than the rebuild it replaces (BenchmarkQuestAppend).
//
// Lifecycle:
//
//	FromDB/New ──► snapshot g1 ──Append──► g2 ──Append──► g3 ─ ─ ►
//	                  │ sealed              │ sealed       │ current
//	                  ▼                     ▼              ▼
//	               miners                miners         miners
//
// Old generations stay valid as long as someone holds them; storage is
// shared between generations, so N snapshots of a database cost far less
// than N copies.
package store

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Options tunes the store's index construction and, for stores opened
// with Open or Create, its durability.
type Options struct {
	// SyncPolicy selects when WAL appends are fsynced (durable stores
	// only). The zero value is wal.SyncAlways: an acknowledged append can
	// never be lost, at the cost of one fsync per batch.
	SyncPolicy wal.SyncPolicy
	// SyncInterval is the background fsync cadence under
	// wal.SyncInterval; 0 selects wal.DefaultSyncInterval.
	SyncInterval time.Duration
	// CheckpointWALBytes triggers an automatic checkpoint when the WAL
	// exceeds this size after an append. 0 selects
	// DefaultCheckpointWALBytes; negative disables automatic checkpoints
	// (Checkpoint can still be called explicitly).
	CheckpointWALBytes int64
	// FS overrides the filesystem durable stores perform their I/O
	// through. Nil selects the real OS filesystem; fault-injection tests
	// install a vfs.FaultFS here.
	FS vfs.FS
	// ProbeBackoff and ProbeBackoffMax tune the degraded-mode recovery
	// prober: the first retry delay and the exponential-backoff cap.
	// Zero selects DefaultProbeBackoff / DefaultProbeBackoffMax.
	ProbeBackoff    time.Duration
	ProbeBackoffMax time.Duration
}

// Record is one unit of an append batch: events to add under a label.
// With upsert semantics, a non-empty Label naming an existing sequence
// appends the events to that sequence (the log/trace case: new events for
// a known session); otherwise a new sequence is created. Without upsert a
// record always creates a new sequence.
type Record struct {
	Label  string
	Events []string
}

// Store owns the mutable spine of a growing sequence database and the
// lineage of snapshots published from it. All methods are safe for
// concurrent use: appends serialize on an internal mutex, readers take the
// current snapshot through one atomic load and never block appends.
type Store struct {
	opt Options

	// mu serializes Append. The fields below it are the working spine:
	// only Append reads or writes them. Published snapshots hold
	// capacity-clipped views of seqs/labels and a dictionary that is never
	// interned into again once shared (copy-on-write), so spine mutation
	// under mu never races with snapshot readers.
	mu      sync.Mutex
	dict    *seq.Dict
	seqs    []seq.Sequence
	labels  []string
	byLabel map[string]int // recorded (non-empty) label -> first index
	sum     summaryAcc

	// dur is the persistence arm (nil for in-memory stores); see
	// durable.go. Guarded by mu.
	dur *durableState

	// follower marks a replication follower (see replica.go): Append
	// rejects with ErrNotPrimary, batches arrive via ApplyReplicated.
	// Guarded by mu.
	follower bool

	cur atomic.Pointer[Snapshot]
}

// Summary holds the basic statistics of one generation, maintained
// incrementally by the store so reporting them never rescans the
// database (seq.ComputeStats is O(total events); services report stats
// on every append and list request).
type Summary struct {
	NumSequences   int
	DistinctEvents int
	TotalLength    int
	MinLength      int
	MaxLength      int
	AvgLength      float64
}

// summaryAcc is the store's running aggregate behind Summary. minCount
// tracks how many sequences currently sit at MinLength: extending the
// last such sequence is the one mutation that can raise the minimum, and
// only then is an O(N) header rescan needed.
type summaryAcc struct {
	totalLen int
	minLen   int
	minCount int
	maxLen   int
}

// addSeq folds a new sequence of length n into the aggregate.
func (a *summaryAcc) addSeq(n, numSeqs int) {
	a.totalLen += n
	if n > a.maxLen {
		a.maxLen = n
	}
	switch {
	case numSeqs == 1 || n < a.minLen:
		a.minLen, a.minCount = n, 1
	case n == a.minLen:
		a.minCount++
	}
}

// growSeq folds an existing sequence growing from oldLen to newLen.
// Returns true when the minimum became stale and must be rescanned.
func (a *summaryAcc) growSeq(oldLen, newLen int) (rescanMin bool) {
	a.totalLen += newLen - oldLen
	if newLen > a.maxLen {
		a.maxLen = newLen
	}
	if oldLen == a.minLen {
		a.minCount--
		if a.minCount == 0 {
			return true
		}
	}
	return false
}

// rescanMin recomputes the minimum-length bookkeeping with one pass over
// the sequence headers (lengths only, never contents).
func (a *summaryAcc) rescanMin(seqs []seq.Sequence) {
	a.minLen, a.minCount = 0, 0
	for i, s := range seqs {
		switch {
		case i == 0 || len(s) < a.minLen:
			a.minLen, a.minCount = len(s), 1
		case len(s) == a.minLen:
			a.minCount++
		}
	}
}

// New returns a store whose first snapshot (generation 1) is empty.
func New(opt Options) *Store {
	st := &Store{opt: opt, dict: seq.NewDict(), byLabel: make(map[string]int)}
	st.publish(1, nil, nil)
	return st
}

// FromDB returns an in-memory store seeded with db as generation 1. The
// store takes ownership: db must not be mutated by the caller afterwards.
func FromDB(db *seq.DB, opt Options) *Store {
	return seedStore(db, opt, 1)
}

// seedStore builds a store whose first published snapshot is db at the
// given generation (recovery republishes a checkpoint's generation; fresh
// stores start at 1).
func seedStore(db *seq.DB, opt Options, gen uint64) *Store {
	st := &Store{
		opt:     opt,
		dict:    db.Dict,
		seqs:    db.Seqs,
		labels:  db.Labels,
		byLabel: make(map[string]int, len(db.Labels)),
	}
	// Labels may be shorter than Seqs in a hand-built DB; index what is
	// recorded, first occurrence winning so upserts are stable.
	for i, l := range st.labels {
		if l != "" {
			if _, ok := st.byLabel[l]; !ok {
				st.byLabel[l] = i
			}
		}
	}
	for len(st.labels) < len(st.seqs) {
		st.labels = append(st.labels, "")
	}
	for i, s := range st.seqs {
		st.sum.addSeq(len(s), i+1)
	}
	st.publish(gen, nil, nil)
	return st
}

// Current returns the latest snapshot. The result is immutable and stays
// valid (and consistent) forever; callers mining a multi-step workload
// should grab it once and use it throughout.
func (st *Store) Current() *Snapshot {
	return st.cur.Load()
}

// Append applies one batch of records and publishes the resulting
// snapshot. The cost is the batch's events plus O(N) slice-header
// bookkeeping — old sequence contents are never re-read. With upsert set,
// a record whose non-empty label names an existing sequence appends its
// events to that sequence copy-on-write (empty-events records are then a
// no-op rather than a spurious rewrite); all other records append new
// sequences. The parent snapshot's indexes, when already built, are
// extended incrementally so the new snapshot is immediately mineable
// without a rebuild.
//
// On a durable store the batch is written to the WAL — and, under
// SyncPolicy=always, fsynced — before the snapshot is published: an
// error means nothing was applied and nothing was acknowledged (see
// commit.go). Errors are impossible on in-memory primaries.
//
// A WAL failure (ENOSPC, EIO, ...) flips the store into degraded mode:
// this and every later Append return an error wrapping ErrDegraded (and,
// via it, the root cause) without touching the disk again, reads keep
// serving the last published snapshot, and a background prober retries
// recovery with exponential backoff until the disk heals (degraded.go).
func (st *Store) Append(records []Record, upsert bool) (*Snapshot, error) {
	if st.dur == nil {
		st.mu.Lock()
		defer st.mu.Unlock()
		if st.follower {
			return nil, ErrNotPrimary
		}
		return st.applyLocked(records, upsert), nil
	}
	// Encode before taking mu; concurrent appenders each need a buffer.
	buf := encPool.Get().(*[]byte)
	defer encPool.Put(buf)
	*buf = encodeBatch((*buf)[:0], records, upsert)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked(*buf, records, upsert, 0)
}

// applyLocked applies one batch to the spine and publishes the next
// snapshot. Caller holds st.mu; durability is the caller's concern (the
// WAL write precedes this, replay re-enters here).
func (st *Store) applyLocked(records []Record, upsert bool) *Snapshot {
	parent := st.cur.Load()
	oldN := len(st.seqs)

	// Copy-on-write of the alphabet: published snapshots share st.dict, so
	// the first unknown name in the batch forces a clone before interning.
	if hasUnknownNames(st.dict, records) {
		st.dict = st.dict.Clone()
	}

	spineCopied := false
	var changed []int
	rescanMin := false
	touched := make(map[int]bool)
	for _, rec := range records {
		ids := make(seq.Sequence, len(rec.Events))
		for j, name := range rec.Events {
			ids[j] = st.dict.Intern(name)
		}
		if upsert && rec.Label != "" {
			if i, ok := st.byLabel[rec.Label]; ok {
				if len(ids) == 0 {
					continue // nothing to extend with
				}
				if i < oldN && !spineCopied {
					// Rewriting an element the published snapshots can
					// see requires a fresh backing array for the spine.
					st.seqs = append([]seq.Sequence(nil), st.seqs...)
					spineCopied = true
				}
				if i < oldN && !touched[i] {
					touched[i] = true
					changed = append(changed, i)
					old := st.seqs[i]
					cow := make(seq.Sequence, len(old), len(old)+len(ids))
					copy(cow, old)
					st.seqs[i] = cow
				}
				oldLen := len(st.seqs[i])
				st.seqs[i] = append(st.seqs[i], ids...)
				rescanMin = st.sum.growSeq(oldLen, len(st.seqs[i])) || rescanMin
				continue
			}
		}
		idx := len(st.seqs)
		st.seqs = append(st.seqs, ids)
		st.labels = append(st.labels, rec.Label)
		st.sum.addSeq(len(ids), idx+1)
		if rec.Label != "" {
			if _, ok := st.byLabel[rec.Label]; !ok {
				st.byLabel[rec.Label] = idx
			}
		}
	}
	if rescanMin {
		st.sum.rescanMin(st.seqs)
	}
	// Index.Extend documents ascending changed indices (its FastNext
	// budget policy is greedy in sequence order); upserts can touch
	// sequences in any order, so restore the invariant here.
	sort.Ints(changed)

	return st.publish(parent.gen+1, parent, changed)
}

// hasUnknownNames reports whether any event name in the batch is missing
// from dict.
func hasUnknownNames(dict *seq.Dict, records []Record) bool {
	for _, rec := range records {
		for _, name := range rec.Events {
			if dict.Lookup(name) == seq.NoEvent {
				return true
			}
		}
	}
	return false
}

// publish seals the current spine as the next snapshot and installs it.
// Caller holds st.mu (or is a constructor). When the parent snapshot has
// built indexes, they are extended incrementally — O(delta) — so a warm
// mining service never pays a rebuild on append; indexes the parent never
// built stay lazy in the child too.
func (st *Store) publish(gen uint64, parent *Snapshot, changed []int) *Snapshot {
	// DB.Extend is the sealing step: it clips the spine slices' capacity
	// so nothing reachable from the snapshot can observe later appends.
	sealed := (&seq.DB{Dict: st.dict, Seqs: st.seqs, Labels: st.labels}).Extend()
	n := len(st.seqs)
	sum := Summary{
		NumSequences:   n,
		DistinctEvents: st.dict.Size(),
		TotalLength:    st.sum.totalLen,
		MinLength:      st.sum.minLen,
		MaxLength:      st.sum.maxLen,
	}
	if n > 0 {
		sum.AvgLength = float64(st.sum.totalLen) / float64(n)
	}
	snap := &Snapshot{
		db:  sealed,
		gen: gen,
		sum: sum,
	}
	if parent != nil {
		fast, slow := parent.peekIndexes()
		if fast != nil {
			snap.fast = fast.Extend(snap.db, changed)
		}
		if slow != nil {
			snap.slow = slow.Extend(snap.db, changed)
		}
	}
	st.cur.Store(snap)
	return snap
}
