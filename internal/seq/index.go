package seq

import (
	"slices"
	"sync"
)

// IndexOptions tunes index construction.
type IndexOptions struct {
	// FastNext builds per-sequence successor tables so that Next — the
	// paper's next(S, e, lowest) primitive, the innermost operation of
	// instance growth — becomes a single array load instead of an
	// O(log L) binary search. The table for sequence Si is a
	// |distinct events of Si| × (len(Si)+1) int32 matrix, so memory is
	// O(Σ Ki·Li); sequences whose table would blow the memory budget
	// fall back to binary search individually.
	FastNext bool
	// FastNextMemBudget caps the total bytes spent on successor tables.
	// 0 selects DefaultFastNextMemBudget; negative means unlimited.
	// Tables are allocated greedily in sequence order; a sequence whose
	// table does not fit the remaining budget is skipped (it falls back
	// to binary search) and smaller later sequences may still fit.
	FastNextMemBudget int64
}

// DefaultFastNextMemBudget is the successor-table budget used when
// IndexOptions.FastNextMemBudget is zero: large enough for every workload
// in the paper's evaluation, small enough to never dominate the footprint
// of the database it indexes.
const DefaultFastNextMemBudget int64 = 256 << 20

// seqTab holds every per-sequence table of the index in one struct, so the
// hot lookups (Next, NextColumn, EventsLast, Count) touch a single
// contiguous header instead of chasing parallel slice-of-slices.
type seqTab struct {
	// events lists the distinct events of the sequence in ascending
	// EventID order; lists[k], last[k] and count[k] are the ascending
	// 1-based positions, the largest position, and the occurrence count
	// of events[k].
	events []EventID
	lists  [][]int32
	last   []int32
	count  []int32
	// slot maps an EventID to its index in events, or -1.
	slot []int32
	// succ, when non-nil, is the FastNext successor table in column-major
	// layout: succ[k*rows+p] is the smallest position l > p with
	// S[l] = events[k], or -1. Column-major keeps the accesses of one
	// instance-growth scan (fixed event, increasing lowest) contiguous.
	succ []int32
	// rows = len(S)+1, the column height of succ.
	rows int32
}

// Index is the inverted event index of Section III-D: for each sequence Si
// and event e, the ordered list L(e,Si) of 1-based positions where e occurs.
// It answers the paper's next(S, e, lowest) query — the smallest position
// l > lowest with S[l] = e — by binary search in O(log L) time or, with
// IndexOptions.FastNext, by one load from a precomputed successor table in
// O(1). It also exposes the per-sequence distinct-event lists (with dense
// last-position arrays) used to build the candidate event lists that keep
// GSgrow's branching factor below |E|.
type Index struct {
	db   *DB
	seqs []seqTab
	// total[e] is the total number of occurrences of e across the
	// database, i.e. the repetitive support of the singleton pattern e.
	total     []int
	succBytes int64
	// opt records the build options so Extend reproduces the same
	// FastNext/budget policy across generations.
	opt IndexOptions
	// The per-event sequence lists in CSR form: the sequences containing
	// e are seqsOf[seqsStart[e]:seqsStart[e+1]], ascending. Built once, on
	// the first SequencesOf call (never by NewIndexWith or Extend, so an
	// extension stays O(delta)); Σ(distinct events per sequence) int32s.
	seqsOnce  sync.Once
	seqsStart []int32
	seqsOf    []int32
}

// NewIndex builds the inverted event index for db with binary-search Next
// (the paper's O(log L) formulation). Construction is O(total database
// length).
func NewIndex(db *DB) *Index { return NewIndexWith(db, IndexOptions{}) }

// NewIndexWith builds the inverted event index with the given options.
func NewIndexWith(db *DB, opt IndexOptions) *Index {
	nEvents := db.Dict.Size()
	ix := &Index{
		db:    db,
		seqs:  make([]seqTab, len(db.Seqs)),
		total: make([]int, nEvents),
		opt:   opt,
	}
	for i, s := range db.Seqs {
		ix.buildSeqTab(&ix.seqs[i], s, nEvents)
	}
	return ix
}

// fastNextBudget resolves the configured successor-table budget.
func (ix *Index) fastNextBudget() int64 {
	if ix.opt.FastNextMemBudget == 0 {
		return DefaultFastNextMemBudget
	}
	return ix.opt.FastNextMemBudget
}

// buildSeqTab (re)builds the per-sequence table t for sequence s, adds s's
// occurrences to ix.total, and — under FastNext — allocates a successor
// table when ix.succBytes stays within the budget. O(K·L) for a sequence
// of length L with K distinct events.
func (ix *Index) buildSeqTab(t *seqTab, s Sequence, nEvents int) {
	// slot first marks each event of s (0 when seen, 1 once collected
	// into evs), then maps it to its index in the sorted evs.
	slot := make([]int32, nEvents)
	for k := range slot {
		slot[k] = -1
	}
	distinct := 0
	for _, e := range s {
		ix.total[e]++
		if slot[e] < 0 {
			slot[e] = 0
			distinct++
		}
	}
	evs := make([]EventID, 0, distinct)
	for _, e := range s {
		if slot[e] == 0 {
			slot[e] = 1
			evs = append(evs, e)
		}
	}
	slices.Sort(evs)
	for k, e := range evs {
		slot[e] = int32(k)
	}
	// One backing array holds the last and count columns and every
	// position list, so a sequence costs a fixed handful of allocations
	// however many distinct events it has.
	buf := make([]int32, 2*len(evs)+len(s))
	last, count, positions := buf[:len(evs):len(evs)], buf[len(evs):2*len(evs):2*len(evs)], buf[2*len(evs):]
	for _, e := range s {
		count[slot[e]]++
	}
	lists := make([][]int32, len(evs))
	off := int32(0)
	for k, c := range count {
		lists[k] = positions[off : off : off+c]
		off += c
	}
	for pos, e := range s {
		k := slot[e]
		lists[k] = append(lists[k], int32(pos+1))
	}
	for k, list := range lists {
		last[k] = list[len(list)-1]
	}
	t.events = evs
	t.lists = lists
	t.last = last
	t.count = count
	t.slot = slot
	t.succ = nil
	t.rows = int32(len(s) + 1)
	if ix.opt.FastNext {
		bytes := int64(len(evs)) * int64(len(s)+1) * 4
		if budget := ix.fastNextBudget(); budget < 0 || ix.succBytes+bytes <= budget {
			t.succ = buildSuccTable(len(s), lists)
			ix.succBytes += bytes
		}
	}
}

// Extend builds the index of db incrementally from ix: the work is the
// delta's events plus O(N) header copies (the seqTab and total slices are
// copied, ~100 bytes per existing sequence — old sequence contents are
// never re-read or re-tabulated). db must be a descendant of ix's
// database: ix's sequences form its prefix unchanged, except the
// (ascending, pre-existing) indices listed in changed, whose contents were
// replaced — e.g. events were appended to them copy-on-write. The
// dictionary may have grown.
//
// Per-sequence tables are shared with ix for every unchanged sequence (the
// per-sequence layout means new sequences never touch old tables); only
// changed sequences are re-tabulated and only appended sequences are
// tabulated fresh. The per-event totals are patched rather than recounted.
// FastNext budget accounting carries across extensions: the bytes already
// spent by inherited tables count against the budget, a changed sequence
// releases its old table's bytes before the rebuilt table is charged, and a
// new table is allocated only while the cumulative total still fits —
// matching NewIndexWith's greedy in-order policy. The per-event sequence
// lists are not carried over: they span every sequence, so the new index
// builds its own on its first SequencesOf call. ix itself is not
// modified; both indexes stay valid, which is what lets an immutable
// snapshot lineage share storage.
func (ix *Index) Extend(db *DB, changed []int) *Index {
	nEvents := db.Dict.Size()
	oldN := len(ix.seqs)
	nix := &Index{
		db:        db,
		seqs:      make([]seqTab, len(db.Seqs)),
		total:     make([]int, nEvents),
		succBytes: ix.succBytes,
		opt:       ix.opt,
	}
	copy(nix.seqs, ix.seqs) // header copies: inner slices are shared
	copy(nix.total, ix.total)
	for _, i := range changed {
		old := &ix.seqs[i]
		for k, e := range old.events {
			nix.total[e] -= int(old.count[k])
		}
		if old.succ != nil {
			nix.succBytes -= int64(len(old.events)) * int64(old.rows) * 4
		}
		nix.buildSeqTab(&nix.seqs[i], db.Seqs[i], nEvents)
	}
	for i := oldN; i < len(db.Seqs); i++ {
		nix.buildSeqTab(&nix.seqs[i], db.Seqs[i], nEvents)
	}
	return nix
}

// Options returns the build options the index (and every index Extended
// from it) was constructed with.
func (ix *Index) Options() IndexOptions { return ix.opt }

// MiningIndex returns the index itself. It makes *Index satisfy the
// miner's view interface (core.IndexView), so kernels accepting "anything
// that can hand over a sealed index" also accept a bare index.
func (ix *Index) MiningIndex() *Index { return ix }

// buildSuccTable fills the column-major successor matrix for one sequence:
// for each distinct-event slot k and position p in [0, seqLen], the smallest
// listed position > p, or -1. O(K·L) time.
func buildSuccTable(seqLen int, lists [][]int32) []int32 {
	rows := seqLen + 1
	succ := make([]int32, len(lists)*rows)
	for k, list := range lists {
		col := succ[k*rows : (k+1)*rows]
		ptr := len(list) - 1
		next := int32(-1)
		for p := rows - 1; p >= 0; p-- {
			for ptr >= 0 && list[ptr] > int32(p) {
				next = list[ptr]
				ptr--
			}
			col[p] = next
		}
	}
	return succ
}

// DB returns the database this index was built over.
func (ix *Index) DB() *DB { return ix.db }

// FastNextBytes returns the memory spent on successor tables (0 when
// FastNext is disabled or nothing fit the budget).
func (ix *Index) FastNextBytes() int64 { return ix.succBytes }

// HasFastNext reports whether sequence i has a successor table (it may not,
// even with FastNext requested, when the table exceeded the memory budget).
func (ix *Index) HasFastNext(i int) bool { return ix.seqs[i].succ != nil }

// Next implements the paper's next(Si, e, lowest) subroutine: the minimum
// 1-based position l in sequence i with l > lowest and Si[l] = e, or -1 when
// no such position exists (the paper's ∞). With a successor table this is
// one array load; otherwise it binary-searches the position list.
func (ix *Index) Next(i int, e EventID, lowest int32) int32 {
	t := &ix.seqs[i]
	if int(e) >= len(t.slot) {
		return -1
	}
	k := t.slot[e]
	if k < 0 {
		return -1
	}
	if t.succ != nil {
		if lowest < 0 {
			lowest = 0
		}
		if lowest >= t.rows {
			return -1
		}
		return t.succ[k*t.rows+lowest]
	}
	list := t.lists[k]
	// Binary search for the first element > lowest.
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid] <= lowest {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(list) {
		return -1
	}
	return list[lo]
}

// NextColumn returns the successor column of event e in sequence i when a
// successor table is present: col[p] is the smallest listed position > p,
// for p in [0, len(Si)]. ok is false when sequence i has no table (callers
// fall back to Next). When ok is true but e never occurs in Si, col is
// empty — any bounds check then fails, matching Next's -1. The returned
// slice is shared with the index and must not be modified.
func (ix *Index) NextColumn(i int, e EventID) (col []int32, ok bool) {
	t := &ix.seqs[i]
	if t.succ == nil {
		return nil, false
	}
	if int(e) >= len(t.slot) {
		return nil, true
	}
	k := t.slot[e]
	if k < 0 {
		return nil, true
	}
	return t.succ[k*t.rows : (k+1)*t.rows], true
}

// Positions returns the ascending 1-based positions of e in sequence i.
// The returned slice is shared with the index and must not be modified.
func (ix *Index) Positions(i int, e EventID) []int32 {
	t := &ix.seqs[i]
	if int(e) >= len(t.slot) {
		return nil
	}
	k := t.slot[e]
	if k < 0 {
		return nil
	}
	return t.lists[k]
}

// SequencesOf returns the ascending indices of the sequences that contain
// e: the per-event view of the inverted index, so building the support
// set of a size-1 pattern visits only those sequences instead of all N.
// The lists of every event are built together on the first call (safe
// for concurrent use). The returned slice is shared with the index and
// must not be modified.
func (ix *Index) SequencesOf(e EventID) []int32 {
	ix.seqsOnce.Do(ix.buildSeqsOf)
	if int(e) < 0 || int(e)+1 >= len(ix.seqsStart) {
		return nil
	}
	return ix.seqsOf[ix.seqsStart[e]:ix.seqsStart[e+1]]
}

// buildSeqsOf fills the CSR per-event sequence lists from the
// per-sequence distinct-event lists in one allocation: count each event's
// sequences, turn the counts into list ends, then walk the sequences
// backwards, writing each one just before its events' ends, which leaves
// every end at its list's start. O(N + |E| + Σ distinct events).
func (ix *Index) buildSeqsOf() {
	total := 0
	for i := range ix.seqs {
		total += len(ix.seqs[i].events)
	}
	nEvents := len(ix.total)
	buf := make([]int32, nEvents+1+total)
	start, of := buf[:nEvents+1:nEvents+1], buf[nEvents+1:]
	for i := range ix.seqs {
		for _, e := range ix.seqs[i].events {
			start[e]++
		}
	}
	for e := 1; e <= nEvents; e++ {
		start[e] += start[e-1]
	}
	for i := len(ix.seqs) - 1; i >= 0; i-- {
		for _, e := range ix.seqs[i].events {
			start[e]--
			of[start[e]] = int32(i)
		}
	}
	ix.seqsStart, ix.seqsOf = start, of
}

// Events returns the distinct events of sequence i in ascending ID order.
// The returned slice is shared with the index and must not be modified.
func (ix *Index) Events(i int) []EventID { return ix.seqs[i].events }

// EventsLast returns the distinct events of sequence i alongside the dense
// array of their last positions (parallel slices): last[k] is the largest
// position of events[k] in Si. Candidate-event generation iterates the two
// flat arrays instead of doing a slot lookup plus a position-list
// dereference per event. Both slices are shared with the index and must
// not be modified.
func (ix *Index) EventsLast(i int) (events []EventID, last []int32) {
	t := &ix.seqs[i]
	return t.events, t.last
}

// EventsCount returns the distinct events of sequence i alongside the
// dense array of their occurrence counts (parallel slices). Shared with
// the index; must not be modified.
func (ix *Index) EventsCount(i int) (events []EventID, count []int32) {
	t := &ix.seqs[i]
	return t.events, t.count
}

// LastPos returns the last (largest) 1-based position of e in sequence i,
// or -1 when e does not occur in Si. This is the O(1) test used by
// candidate-event generation: e can extend some instance whose last landmark
// is p only if LastPos(i, e) > p.
func (ix *Index) LastPos(i int, e EventID) int32 {
	t := &ix.seqs[i]
	if int(e) >= len(t.slot) {
		return -1
	}
	k := t.slot[e]
	if k < 0 {
		return -1
	}
	return t.last[k]
}

// Count returns the number of occurrences of e in sequence i.
func (ix *Index) Count(i int, e EventID) int {
	t := &ix.seqs[i]
	if int(e) >= len(t.slot) {
		return 0
	}
	k := t.slot[e]
	if k < 0 {
		return 0
	}
	return int(t.count[k])
}

// SingletonSupport returns the repetitive support of the single-event
// pattern e, which equals the total number of occurrences of e in the
// database (all single-event instances are pairwise non-overlapping).
func (ix *Index) SingletonSupport(e EventID) int {
	if int(e) >= len(ix.total) {
		return 0
	}
	return ix.total[int(e)]
}

// FrequentEvents returns, in ascending ID order, every event whose
// singleton support is at least minSup.
func (ix *Index) FrequentEvents(minSup int) []EventID {
	var out []EventID
	for e, c := range ix.total {
		if c >= minSup {
			out = append(out, EventID(e))
		}
	}
	return out
}
