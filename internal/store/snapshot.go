package store

import (
	"sync"

	"repro/internal/seq"
)

// Snapshot is one sealed generation of the database: an immutable seq.DB
// view plus its inverted indexes. Every accessor is safe for concurrent
// use, and nothing reachable from a snapshot is ever mutated after it is
// published — miners holding a snapshot observe one consistent database
// regardless of how many appends happen meanwhile.
type Snapshot struct {
	db  *seq.DB
	gen uint64
	sum Summary // O(1)-maintained basic statistics (see Store)

	// ixMu guards lazy index construction. Appends extend a parent's
	// already-built indexes eagerly (see Store.publish), so in the steady
	// state of a mining service these are non-nil from birth and the lock
	// is uncontended.
	ixMu sync.Mutex
	fast *seq.Index // FastNext successor-table index (mining default)
	slow *seq.Index // binary-search index (ablation and benchmarks)

	statsOnce sync.Once
	stats     seq.Stats
}

// Generation returns the snapshot's generation number: 1 for a store's
// seed state, incremented by every append. Generations identify database
// contents for cache keying — equal (store, generation) means equal data.
func (s *Snapshot) Generation() uint64 { return s.gen }

// DB returns the sealed database view. Callers must not mutate it.
func (s *Snapshot) DB() *seq.DB { return s.db }

// NumSequences returns the number of sequences in this generation.
func (s *Snapshot) NumSequences() int { return s.db.NumSequences() }

// NumEvents returns the alphabet size visible to this generation.
func (s *Snapshot) NumEvents() int { return s.db.Dict.Size() }

// Summary returns the basic statistics of this generation in O(1): the
// store maintains them incrementally across appends, so hot paths (every
// append response, list/stats endpoints) never rescan the database.
func (s *Snapshot) Summary() Summary { return s.sum }

// Stats returns the full database statistics of this generation —
// including the median length and max event frequency, which require a
// scan of all events — computed once and memoized (snapshots are
// immutable, so they can never go stale). Prefer Summary on hot paths.
func (s *Snapshot) Stats() seq.Stats {
	s.statsOnce.Do(func() { s.stats = seq.ComputeStats(s.db) })
	return s.stats
}

// Index returns the snapshot's inverted index: the FastNext variant by
// default, the binary-search variant when disableFastNext is set (the
// paper's original O(log L) formulation — results are identical; only
// ablation runs and benchmarks ask for it). The
// index is built lazily on first use unless the append that created this
// snapshot already extended the parent's.
func (s *Snapshot) Index(disableFastNext bool) *seq.Index {
	s.ixMu.Lock()
	defer s.ixMu.Unlock()
	if disableFastNext {
		if s.slow == nil {
			s.slow = seq.NewIndex(s.db)
		}
		return s.slow
	}
	if s.fast == nil {
		s.fast = seq.NewIndexWith(s.db, seq.IndexOptions{FastNext: true})
	}
	return s.fast
}

// MiningIndex returns the snapshot's default index, satisfying
// core.IndexView: a snapshot can be passed directly to the mining entry
// points.
func (s *Snapshot) MiningIndex() *seq.Index { return s.Index(false) }

// peekIndexes returns whichever indexes are already built, without
// triggering construction. Store.publish uses it to decide what to extend
// incrementally.
func (s *Snapshot) peekIndexes() (fast, slow *seq.Index) {
	s.ixMu.Lock()
	defer s.ixMu.Unlock()
	return s.fast, s.slow
}
