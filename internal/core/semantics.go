package core

import (
	"cmp"
	"slices"

	"repro/internal/seq"
)

// Semantics is the pluggable occurrence-semantics strategy of the DFS
// kernel. GSgrow/CloGSgrow fix one semantics — repetitive support over
// non-overlapping leftmost instances (Definition 2.3) — but the related
// work varies exactly this axis, so the kernel delegates the three
// semantics-bearing decisions to a strategy: how instance sets grow, how a
// node's support is counted, and how the finished pattern set is
// post-processed.
//
// The contract a strategy must honor:
//
//   - Grow/Singleton produce the DFS driver state. The kernel prunes any
//     branch whose grown set has fewer than MinSupport instances, so the
//     set size must be an upper bound on Support (for the built-ins it is:
//     leftmost sets are maximum non-overlapping sets).
//   - Support must be anti-monotone under append extensions: appending an
//     event can never raise it. The kernel prunes the whole subtree of a
//     node whose Support falls below MinSupport.
//   - SupportsClosed gates Options.Closed. The closure machinery
//     (Theorems 4-5) reasons about leftmost sets specifically, so any
//     strategy that changes Grow or Support away from the leftmost
//     behavior must return false.
//   - SearchOptions may rewrite the options the DFS runs under (e.g.
//     Compressed mines the closed set internally); Finalize then sees the
//     caller's original options and the merged, deterministic result.
//     Finalize runs exactly once per Mine/MineParallel call, after the
//     parallel merge, so its output order defines the mode's output order
//     at every worker count.
//
// Strategies must be stateless values: MineParallel shares one across
// workers and calls Support/Grow concurrently.
type Semantics interface {
	// Name is the wire/flag name of the semantics ("repetitive", ...).
	Name() string
	// Singleton appends the size-1 driver set of event e to dst.
	Singleton(dst Set, ix *seq.Index, e seq.EventID) Set
	// Grow appends to dst the driver set of pattern+e grown from I, the
	// driver set of pattern.
	Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set
	// Support counts the pattern's support given its driver set I. It must
	// be anti-monotone under append and bounded above by len(I).
	Support(ix *seq.Index, pattern []seq.EventID, I Set) int
	// Instances materializes the full-landmark support set reported for an
	// emitted pattern (Options.CollectInstances). len(Instances) must equal
	// Support of the emitted node.
	Instances(ix *seq.Index, pattern []seq.EventID) FullSet
	// SupportsClosed reports whether Options.Closed may be combined with
	// this strategy.
	SupportsClosed() bool
	// SearchOptions maps the caller's options to the options the DFS
	// actually runs under.
	SearchOptions(opt Options) Options
	// Finalize post-processes the merged search result under the caller's
	// original options. It may return res unchanged or a fresh Result.
	Finalize(ix *seq.Index, opt Options, res *Result) *Result
}

// Built-in strategies. A nil Options.Semantics means Repetitive: the
// kernel's inlined hot path is exactly the repetitive behavior, so the
// default (and any strategy nodeSemantics maps to nil) costs no interface
// dispatch and no extra allocations.
var (
	// Repetitive is the paper's semantics: support is the size of the
	// leftmost (maximum non-overlapping) instance set. GSgrow/CloGSgrow.
	Repetitive Semantics = repetitiveSemantics{}
	// NonOverlapping counts disjoint occurrence windows: an occurrence may
	// start only strictly after the previous occurrence's last landmark
	// (arXiv:2311.09667 flavor). Repetitive semantics lets instances
	// interleave as long as no position is reused at the same pattern
	// index; NonOverlapping forbids interleaving entirely, so its support
	// is at most the repetitive support.
	NonOverlapping Semantics = nonOverlappingSemantics{}
	// Compressed mines the closed pattern set and then returns a small set
	// of representatives that δ-covers it (arXiv:0906.0885, CRGSgrow
	// flavor): every closed pattern is a subsequence of some representative
	// whose support is within a (1-δ) factor. MaxPatterns caps the number
	// of representatives.
	Compressed Semantics = compressedSemantics{}
)

// DefaultCompressDelta is the support tolerance used by the Compressed
// strategy when Options.CompressDelta is zero. δ = 0 would make every
// closed pattern its own representative (no compression), so the zero
// value selects a useful default instead.
const DefaultCompressDelta = 0.1

// nodeSemantics maps a strategy to the per-node hook the miner stores:
// strategies whose node behavior is exactly the inlined repetitive
// behavior map to nil, keeping the default hot path free of interface
// calls (and byte-identical to the pre-strategy kernel).
func nodeSemantics(sem Semantics) Semantics {
	switch sem {
	case nil, Repetitive, Compressed:
		return nil
	}
	return sem
}

// candidateFloor decides, once per miner, whether candidate lists carry
// the per-sequence support bound (see candScan): every strategy whose
// DFS runs on the leftmost set grown by appendGrow — repetitive, closed,
// compressed and NonOverlapping, whose kernel prune is the same
// len(I) < MinSupport test — drops events whose bound is below
// MinSupport. Any other strategy (gapped: its gap-valid end sets can
// outnumber the parent's instances) lists every extending event.
func candidateFloor(opt Options) int32 {
	switch opt.Semantics {
	case nil, Repetitive, Compressed, NonOverlapping:
		return int32(opt.MinSupport)
	}
	return 0
}

// repetitiveSemantics is the paper's default, expressed as a strategy.
// The kernel never dispatches through it (nodeSemantics maps it to nil);
// it exists so callers can treat all modes uniformly and as the reference
// implementation of the interface contract.
type repetitiveSemantics struct{}

func (repetitiveSemantics) Name() string { return "repetitive" }
func (repetitiveSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (repetitiveSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (repetitiveSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return len(I)
}
func (repetitiveSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return ComputeSupportSet(ix, pattern)
}
func (repetitiveSemantics) SupportsClosed() bool              { return true }
func (repetitiveSemantics) SearchOptions(opt Options) Options { return opt }
func (repetitiveSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	return res
}

// nonOverlappingSemantics drives the DFS with the leftmost repetitive set
// (whose size bounds the disjoint count from above, so the kernel's
// len(I) < MinSupport branch prune stays sound) and counts support as the
// maximum number of pairwise disjoint occurrence windows.
type nonOverlappingSemantics struct{}

func (nonOverlappingSemantics) Name() string { return "nonoverlap" }
func (nonOverlappingSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (nonOverlappingSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (nonOverlappingSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return disjointSupport(ix, pattern, I)
}
func (nonOverlappingSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return disjointInstances(ix, pattern)
}
func (nonOverlappingSemantics) SupportsClosed() bool              { return false }
func (nonOverlappingSemantics) SearchOptions(opt Options) Options { return opt }
func (nonOverlappingSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	return res
}

// disjointSupport sums, over the sequences that hold at least one leftmost
// instance, the maximum number of pairwise disjoint occurrence windows.
// Only sequences present in I can contain an occurrence (the leftmost set
// is a maximum set), so iterating I's sequence runs skips the rest of the
// database. The count cannot be read off the leftmost set itself: in
// S = aabab the leftmost set of ab is {[1,3], [2,5]} (windows overlap,
// disjoint count 1 among them) while the disjoint windows {[1,3], [4,5]}
// give count 2 — hence the recount per node.
func disjointSupport(ix *seq.Index, pattern []seq.EventID, I Set) int {
	total := 0
	for k := 0; k < len(I); {
		si := int(I[k].Seq)
		for k < len(I) && int(I[k].Seq) == si {
			k++
		}
		total += disjointCount(ix, si, pattern)
	}
	return total
}

// disjointCount greedily matches occurrence windows in sequence si, each
// starting strictly after the previous window's last landmark. Matching
// every pattern event at its earliest legal position yields the occurrence
// with the minimal end among those starting after the cursor, and taking
// minimal-end windows greedily maximizes the number of disjoint windows
// (the classical interval-scheduling argument), so the count is the
// maximum.
func disjointCount(ix *seq.Index, si int, pattern []seq.EventID) int {
	count := 0
	pos := int32(0)
	for {
		p := pos
		for _, e := range pattern {
			p = ix.Next(si, e, p)
			if p < 0 {
				return count
			}
		}
		count++
		pos = p
	}
}

// disjointInstances materializes the greedy disjoint windows with full
// landmarks, in right-shift order. Its length equals disjointSupport over
// any valid driver set of the pattern.
func disjointInstances(ix *seq.Index, pattern []seq.EventID) FullSet {
	var out FullSet
	if len(pattern) == 0 {
		return nil
	}
	for si := 0; si < ix.DB().NumSequences(); si++ {
		pos := int32(0)
		for {
			p := pos
			land := make([]int32, 0, len(pattern))
			for _, e := range pattern {
				p = ix.Next(si, e, p)
				if p < 0 {
					break
				}
				land = append(land, p)
			}
			if len(land) < len(pattern) {
				break
			}
			out = append(out, Instance{Seq: int32(si), Land: land})
			pos = p
		}
	}
	return out
}

// compressedSemantics mines the closed set internally (per-node behavior
// is exactly repetitive, so nodeSemantics maps it to nil) and compresses
// it into δ-covering representatives in Finalize.
type compressedSemantics struct{}

func (compressedSemantics) Name() string { return "compressed" }
func (compressedSemantics) Singleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingleton(dst, ix, e)
}
func (compressedSemantics) Grow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	return appendGrow(dst, ix, I, e)
}
func (compressedSemantics) Support(ix *seq.Index, pattern []seq.EventID, I Set) int {
	return len(I)
}
func (compressedSemantics) Instances(ix *seq.Index, pattern []seq.EventID) FullSet {
	return ComputeSupportSet(ix, pattern)
}
func (compressedSemantics) SupportsClosed() bool { return true }

// SearchOptions runs the internal search as an exhaustive closed mine:
// representative selection needs the whole closed set, so the caller's
// output shaping (MaxPatterns cap, OnPattern stream, DiscardPatterns) is
// deferred to Finalize.
func (compressedSemantics) SearchOptions(opt Options) Options {
	opt.Closed = true
	opt.MaxPatterns = 0
	opt.OnPattern = nil
	opt.DiscardPatterns = false
	return opt
}

// Finalize greedily selects representatives until every closed pattern is
// δ-covered. R covers P iff P is a subsequence of R and
// sup(R) >= (1-δ)·sup(P) (supports can only drop toward superpatterns, so
// the representative's support understates P's by at most a δ fraction).
// Each round picks the pattern covering the most still-uncovered patterns;
// ties break by support, then length, then lexicographic order — all
// deterministic functions of the merged closed set, so the output is
// identical at every worker count. Every pattern covers itself, so the
// loop always terminates with full coverage unless MaxPatterns cuts it
// short (reported as Truncated).
//
// Cost, for n closed patterns: an O(n log n) sort by support, then
// subsequence tests only inside each pattern's support window (see
// coverLists), then a lazy greedy (Minoux) over a max-heap keyed by
// (gain, betterRep). A heap key is the pattern's gain when it was last
// counted; gains only fall as patterns get covered, so a key never
// understates the current gain. The top's gain is recounted: if
// unchanged, the top ranks above every other key, hence above every other
// pattern's current gain under the same tie-break, so it is exactly the
// pattern a full rescan of all gains would pick; otherwise it is
// re-sifted with the new gain, or dropped at gain 0. Each re-sift follows a gain drop, so
// the greedy does O(Σ|covers|) heap operations, O(Σ|covers| · log n),
// plus one cover-list recount per pop. The picks, their order, the
// MaxPatterns cut and the OnPattern stop are those of the full rescan.
func (compressedSemantics) Finalize(ix *seq.Index, opt Options, res *Result) *Result {
	delta := opt.CompressDelta
	if delta == 0 {
		delta = DefaultCompressDelta
	}
	pats := res.Patterns
	n := len(pats)
	out := &Result{Stats: res.Stats}
	if n > 0 && !opt.DiscardPatterns {
		// At most n representatives (fewer under MaxPatterns): one
		// allocation in place of append's doublings.
		capacity := n
		if opt.MaxPatterns > 0 {
			capacity = min(n, opt.MaxPatterns)
		}
		out.Patterns = make([]Pattern, 0, capacity)
	}
	order, off, covers := coverLists(pats, delta)

	// gain counts the uncovered patterns in a cover list; covered is
	// indexed, like the lists, by position in support order.
	covered := make([]bool, n)
	gain := func(p int32) int32 {
		g := int32(0)
		for _, q := range covers[off[p]:off[p+1]] {
			if !covered[q] {
				g++
			}
		}
		return g
	}
	h := repHeap{pats: pats, order: order, items: make([]repItem, n)}
	for p := range h.items {
		h.items[p] = repItem{gain: off[p+1] - off[p], pos: int32(p)}
	}
	h.init()

	numCovered, reps := 0, 0
	for numCovered < n && len(h.items) > 0 {
		top := &h.items[0]
		if g := gain(top.pos); g != top.gain {
			if g == 0 {
				h.pop()
			} else {
				top.gain = g
				h.down(0)
			}
			continue
		}
		best := h.pop().pos
		for _, q := range covers[off[best]:off[best+1]] {
			if !covered[q] {
				covered[q] = true
				numCovered++
			}
		}
		p := pats[order[best]]
		out.NumPatterns++
		if !opt.DiscardPatterns {
			out.Patterns = append(out.Patterns, p)
		}
		if opt.OnPattern != nil && !opt.OnPattern(p) {
			out.Stats.Truncated = true
			return out
		}
		reps++
		if opt.MaxPatterns > 0 && reps >= opt.MaxPatterns {
			if numCovered < n {
				out.Stats.Truncated = true
			}
			return out
		}
	}
	return out
}

// coverLists returns the patterns' indices in ascending support order and,
// for each position p of that order, the positions of the patterns p
// covers, flat in covers[off[p]:off[p+1]].
//
// Repetitive support is anti-monotone, so a subsequence j of i has
// sup(j) >= sup(i), and the cover test fails once
// sup(i) < (1-δ)·sup(j): i's candidates lie in the window of positions
// from the first support >= sup(i) to the first support failing that
// test. Both window ends only move right as sup(i) grows, so two cursors
// find them. Inside the window a candidate longer than i, or holding an
// event bit (event ID mod 64) that i lacks, is rejected before subseqOf.
func coverLists(pats []Pattern, delta float64) (order, off, covers []int32) {
	n := len(pats)
	order = make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Compare(pats[a].Support, pats[b].Support)
	})
	mask := make([]uint64, n)
	for p, i := range order {
		for _, e := range pats[i].Events {
			mask[p] |= 1 << (uint32(e) & 63)
		}
	}
	off = make([]int32, n+1)
	covers = make([]int32, 0, 2*n)
	lo, hi := 0, 0
	for p, i := range order {
		sup := pats[i].Support
		for pats[order[lo]].Support < sup {
			lo++
		}
		for hi < n && !(float64(sup) < (1-delta)*float64(pats[order[hi]].Support)) {
			hi++
		}
		events := pats[i].Events
		for q := lo; q < hi; q++ {
			if len(pats[order[q]].Events) > len(events) || mask[q]&^mask[p] != 0 {
				continue
			}
			if subseqOf(pats[order[q]].Events, events) {
				covers = append(covers, int32(q))
			}
		}
		off[p+1] = int32(len(covers))
	}
	return order, off, covers
}

// repItem is a candidate representative in the lazy greedy: its position
// in support order and its gain when last counted.
type repItem struct {
	gain, pos int32
}

// repHeap is a max-heap of candidates under the greedy's order: higher
// gain first, then betterRep — a strict total order, since the closed
// patterns are distinct event sequences. It is typed, not a
// container/heap, so no operation boxes an item.
type repHeap struct {
	pats  []Pattern
	order []int32
	items []repItem
}

func (h *repHeap) before(a, b repItem) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	return betterRep(h.pats, int(h.order[a.pos]), int(h.order[b.pos]))
}

func (h *repHeap) init() {
	for k := len(h.items)/2 - 1; k >= 0; k-- {
		h.down(k)
	}
}

func (h *repHeap) down(k int) {
	items := h.items
	for {
		c := 2*k + 1
		if c >= len(items) {
			return
		}
		if c+1 < len(items) && h.before(items[c+1], items[c]) {
			c++
		}
		if !h.before(items[c], items[k]) {
			return
		}
		items[k], items[c] = items[c], items[k]
		k = c
	}
}

func (h *repHeap) pop() repItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

// betterRep is the deterministic tie-break between equal-gain candidate
// representatives: higher support first, then longer patterns, then
// lexicographically smaller event sequences.
func betterRep(pats []Pattern, i, best int) bool {
	if best < 0 {
		return true
	}
	a, b := &pats[i], &pats[best]
	if a.Support != b.Support {
		return a.Support > b.Support
	}
	if len(a.Events) != len(b.Events) {
		return len(a.Events) > len(b.Events)
	}
	return lessEvents(a.Events, b.Events)
}

// subseqOf reports whether a is a (not necessarily contiguous) subsequence
// of b.
func subseqOf(a, b []seq.EventID) bool {
	if len(a) > len(b) {
		return false
	}
	k := 0
	for _, e := range b {
		if k < len(a) && a[k] == e {
			k++
		}
	}
	return k == len(a)
}
