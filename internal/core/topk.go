package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/seq"
)

// runTopKSearch seeds the frontier with the size-1 patterns and pops
// best-first until k patterns were emitted (into m.res) or the frontier is
// exhausted. The miner and frontier are reusable: a warm repeat run with
// the same pair performs only the per-emission pattern copies.
func runTopKSearch(ctx context.Context, m *miner, f *topkFrontier, seeds []seq.EventID, k int, closed bool, maxLen int) {
	f.reset()
	for _, e := range seeds {
		// SingletonSupport is exactly the size-1 pattern's support, so
		// seeds need no instance-set materialization at all.
		f.pushChild(nil, e, m.ix.SingletonSupport(e), false)
	}
	tick := 0
	for f.len() > 0 && m.res.NumPatterns < k {
		if ctxPoll(ctx, &tick) {
			m.res.Stats.Truncated = true
			break
		}
		n := f.pop()
		pattern := f.reconstruct(n)
		visited, emit := m.visitTopKNode(f, n, pattern, closed, maxLen, nil)
		if !visited {
			continue
		}
		if emit {
			m.res.NumPatterns++
			ev := make([]seq.EventID, len(pattern))
			copy(ev, pattern)
			m.res.Patterns = append(m.res.Patterns, Pattern{Events: ev, Support: int(n.sup)})
		}
		f.recycle(n)
	}
	m.res.Stats.FrontierPeak = f.peak
	m.res.Stats.ArenaBytes = f.arenaBytes()
}

// visitTopKNode performs the per-pop work shared by the sequential and the
// sharded best-first searches: re-grow the popped pattern's prefix support
// chain, settle a bound-only node's key, run the closure check in closed
// mode, and push the node's children into f — expansion happens
// regardless of closedness, because closed descendants can hide under
// non-closed nodes (Example 3.5).
//
// Children are not grown here. Each waits in the frontier keyed by its
// per-sequence support bound Σᵢ min(|Iᵢ|, countᵢ(e)) (candidateBounds), an
// upper bound on its support, flagged bound-only; its support set is
// grown when it is popped, by the prefix re-grow every pop performs
// anyway. Pop order stays the eager search's order, (exact support desc,
// pattern lex asc): every key is at least its node's exact support and
// the lex part of a key never changes, so when a node whose key equals its
// exact support reaches the top, everything behind it — and every
// descendant of those nodes, whose support is no larger and whose
// pattern is lexically later — ranks after it in that order. A popped
// bound-only node whose exact support is below its key is re-keyed and
// pushed back (or dropped at support 0, or continued at once when it
// still ranks first) without being checked, expanded, emitted or counted.
//
// The exception is closed mode's equal-support append extensions: a child
// whose bound equals sup(P) may refute the node's closure (ub < sup(P)
// rules that out), so it is grown at once, and pushed with its exact
// support. One growth per such candidate serves both the verdict and the
// expansion.
//
// With a non-nil bound (parallel mode), a child whose bound already ranks
// strictly below the shared k-th-best support is not pushed at all, and a
// settled node that ranks after the k-th best candidate is dropped. The
// bound only tightens, so neither could ever have been emitted or
// repositioned a survivor: output stays byte-identical to the sequential
// pop order.
//
// visited is false when n was re-keyed or dropped: the caller must then
// neither emit nor recycle it. Otherwise emit reports whether n is a
// (closed) pattern the caller should emit.
func (m *miner) visitTopKNode(f *topkFrontier, n *topkNode, pattern []seq.EventID, closed bool, maxLen int, bound *topkBound) (visited, emit bool) {
	// Re-grow the prefix support-set chain that growClosed would have on
	// its DFS stack: the last chain entry is this pattern's leftmost
	// support set.
	cur := appendSingleton(m.getSet(m.ix.SingletonSupport(pattern[0])), m.ix, pattern[0])
	m.chain = append(m.chain[:0], cur)
	for j := 1; j < len(pattern); j++ {
		m.res.Stats.INSgrowCalls++
		cur = appendGrow(m.getSet(len(cur)), m.ix, cur, pattern[j])
		m.chain = append(m.chain, cur)
	}
	I := cur
	supI := len(I)
	if n.bound && !f.settle(n, supI, pattern, bound) {
		m.releaseChain()
		return false, false
	}
	m.pattern = append(m.pattern[:0], pattern...)
	m.enterNode()
	// The memo is path-scoped and best-first search has no DFS path:
	// revert whatever this pop's closure check records before returning.
	memoMark := len(m.memoLog)
	emit = true
	if closed {
		// The closure check reads the candidate list of every proper
		// prefix, as the DFS keeps them on its stack.
		for _, s := range m.chain[:len(m.chain)-1] {
			m.candStack = append(m.candStack, m.candidates(s))
		}
		m.res.Stats.ClosureChecks++
		if equal, _ := m.checkNonAppend(I); equal {
			emit = false
		}
	}
	atCap := maxLen > 0 && len(pattern) >= maxLen
	if !atCap || (closed && emit) {
		cands, bounds := m.candidateBounds(I)
		for ci, e := range cands {
			if atCap && !emit {
				break // verdict settled; no children are pushed at the cap
			}
			// The per-sequence bound Σᵢ min(|Iᵢ|, countᵢ(e)) is at most
			// min(sup(P), sup(e)) and at least sup(P∘e) (see candScan).
			ub := int(bounds[ci])
			// Only an equal-support append extension can refute closure,
			// and ub < sup(P) already rules that out.
			needVerdict := closed && emit && ub == supI
			if atCap && !needVerdict {
				continue
			}
			if bound != nil && !needVerdict && bound.supBelow(ub) {
				continue // prune before the child even exists
			}
			if !needVerdict {
				f.pushChild(n, e, ub, true)
				continue
			}
			m.res.Stats.INSgrowCalls++
			I2 := appendGrow(m.getSet(supI), m.ix, I, e)
			if len(I2) == supI {
				emit = false
			}
			if !atCap && len(I2) > 0 && (bound == nil || !bound.supBelow(len(I2))) {
				f.pushChild(n, e, len(I2), false)
			}
			m.putSet(I2)
		}
		m.putCands(cands)
	}
	m.memoRevert(memoMark)
	m.releaseChain()
	if !emit {
		m.res.Stats.NonClosedSkipped++
	}
	return true, emit
}

// releaseChain returns the re-grown prefix chain and its candidate lists
// to the miner's pools.
func (m *miner) releaseChain() {
	for _, s := range m.chain {
		m.putSet(s)
	}
	m.chain = m.chain[:0]
	for _, c := range m.candStack {
		m.putCands(c)
	}
	m.candStack = m.candStack[:0]
}

// MineTopKParallel returns the k highest-support (closed) patterns without
// a support threshold, by best-first search over the pattern-growth tree:
// since support never increases along a growth edge (Apriori), popping
// nodes in descending support order emits patterns in non-increasing
// support order, so the first k (closed) pops are a valid top-k set. Ties
// are broken lexicographically for determinism. maxLen (0 = unbounded)
// bounds pattern length.
//
// Intended for exploratory use: without a threshold, the frontier can grow
// large on dense data; the k-th emitted support effectively becomes the
// threshold, so small k on heavy-tailed data is cheap.
//
// The frontier is arena-backed: nodes live in blocks carved from a
// per-search allocator and store only (parent, last event, key), so a
// frontier entry costs tens of bytes instead of a pattern copy plus an
// instance-set copy. A child is pushed ungrown, keyed by its per-sequence
// support bound; its support set is grown only when it is popped, by the
// prefix re-grow every pop performs for the closure check and the
// expansion. A popped child whose support is below its key goes back in
// at its support (see visitTopKNode), so nodes are visited in the order
// exact supports would give. Popped or pruned nodes return to a free list
// once their last child is gone.
//
// workers <= 1 (or a GOMAXPROCS clamp down to 1) runs that search on one
// goroutine. When ctx is done, it stops and the patterns emitted so far
// come back with Stats.Truncated set; they are still the true top
// patterns, since best-first order guarantees every emitted pattern
// outranks everything unexplored.
//
// More workers (clamped to GOMAXPROCS — output is byte-identical at any
// worker count, so oversubscription would only add scheduling overhead)
// shard the frontier: every worker owns a private arena-backed best-first
// heap seeded with a round-robin share of the size-1 patterns (heaviest
// first) and expands it independently — no locks on the expansion path.
// The workers coordinate through a shared bound holding the k best
// candidate patterns found so far, with the k-th best support readable
// atomically: because support never increases along a growth edge and
// appending events only moves a pattern lexicographically later, a
// frontier node that ranks after the current k-th best candidate can be
// discarded together with its whole subtree — and since each shard's heap
// pops best-first, the first prunable pop empties that worker's entire
// frontier. The same bound prunes children at push time, by their support
// bound. Both tests stay sound on a key that is only an upper bound: the
// exact support is no larger and the pattern the same, so the node ranks
// no earlier than its key. The final merge sorts the surviving candidates
// by (support desc, pattern lex asc) — the sequential pop order — so the
// result is byte-identical to the single-worker search for any worker
// count and any steal/schedule timing.
//
// The sharded search typically visits somewhat more nodes than the
// sequential run (each shard explores until the shared bound proves its
// frontier dead, where the sequential search stops at the k-th emission),
// in exchange for expanding the deep, expensive subtrees concurrently. A
// cancelled sharded run returns the best candidates found so far with
// Stats.Truncated set; unlike the sequential search, those are not
// guaranteed to be the true top-k (an unexplored shard may still have held
// better patterns).
func MineTopKParallel(ctx context.Context, v IndexView, k int, closed bool, maxLen, workers int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	ix := v.MiningIndex()
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	requested := max(workers, 1)
	workers = effectiveWorkers(workers)
	if workers <= 1 {
		m := newMiner(ix, Options{MinSupport: 1, Closed: closed})
		if ctxDone(ctx) {
			// Pre-cancelled: report a truncated empty result without popping.
			m.res.Stats.Truncated = true
		} else {
			runTopKSearch(ctx, m, &topkFrontier{}, ix.FrequentEvents(1), k, closed, maxLen)
		}
		m.res.Stats.WorkersRequested = requested
		m.res.Stats.WorkersEffective = 1
		m.res.Stats.Duration = time.Since(start)
		return m.res, nil
	}
	merged := &Result{}
	merged.Stats.WorkersRequested = requested
	merged.Stats.WorkersEffective = workers
	if ctxDone(ctx) {
		merged.Stats.Truncated = true
		merged.Stats.Duration = time.Since(start)
		return merged, nil
	}

	// Shard the seeds round-robin by descending singleton support so the
	// initial frontiers are balanced.
	seeds := ix.FrequentEvents(1)
	order := sortSeedsByWork(ix, seeds)
	fronts := make([]*topkFrontier, workers)
	for w := range fronts {
		fronts[w] = &topkFrontier{}
	}
	for i, si := range order {
		e := seeds[si]
		fronts[i%workers].pushChild(nil, e, ix.SingletonSupport(e), false)
	}

	bound := newTopkBound(k)
	miners := make([]*miner, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m := newMinerWithSeeds(ix, Options{MinSupport: 1, Closed: closed}, seeds)
		miners[w] = m
		wg.Add(1)
		go func(m *miner, f *topkFrontier) {
			defer wg.Done()
			tick := 0
			for f.len() > 0 {
				if ctxPoll(ctx, &tick) {
					m.res.Stats.Truncated = true
					break
				}
				n := f.pop()
				pattern := f.reconstruct(n)
				if bound.ranksAfter(int(n.sup), pattern) {
					// The local heap pops best-first: if its best node
					// cannot beat the k-th candidate, neither can anything
					// below it, nor any descendant. The shard is done.
					break
				}
				visited, emit := m.visitTopKNode(f, n, pattern, closed, maxLen, bound)
				if !visited {
					continue
				}
				if emit {
					bound.offer(pattern, int(n.sup))
				}
				f.recycle(n)
			}
			m.res.Stats.FrontierPeak = f.peak
			m.res.Stats.ArenaBytes = f.arenaBytes()
		}(miners[w], fronts[w])
	}
	wg.Wait()

	for _, m := range miners {
		mergeStats(&merged.Stats, &m.res.Stats)
	}
	// Final merge: the bound retains exactly the k best candidates (or all
	// of them when fewer exist); emitting them in rank order reproduces
	// the sequential pop order, ties included.
	merged.Patterns = bound.ranked()
	merged.NumPatterns = len(merged.Patterns)
	merged.Stats.Duration = time.Since(start)
	return merged, nil
}

// topkArenaBlock is how many frontier nodes one arena block holds; at ~40
// bytes per node a block is ~40KB, so even million-node frontiers sit in a
// few dozen allocations.
const topkArenaBlock = 1024

// topkNodeSize is the in-memory footprint of one frontier node, used for
// the ArenaBytes stat.
var topkNodeSize = int64(unsafe.Sizeof(topkNode{}))

// topkNode is a frontier entry of the best-first search. The pattern is
// stored as parent pointer + last event and reconstructed only when the
// node is popped; no instance set is stored at all (it is re-grown from
// the index at pop time). Nodes are arena-allocated and returned to a
// free list once popped/pruned with no live children.
type topkNode struct {
	parent   *topkNode
	nextFree *topkNode // free-list link, meaningful only while freed
	// sup is the heap key: the exact support, or, while bound is set, the
	// per-sequence support bound the node was pushed with (never below
	// the exact support).
	sup    int32
	depth  int32 // pattern length
	kids   int32 // live children keeping this node's chain reachable
	event  seq.EventID
	popped bool
	bound  bool // sup is an upper bound; the exact support is not known yet
}

// topkFrontier is one best-first heap plus the arena and free list backing
// its nodes. It is single-owner (one search, or one worker shard) and
// reusable across runs via reset.
type topkFrontier struct {
	heap      []*topkNode
	blocks    [][]topkNode
	blockUsed int // entries consumed from the last block
	free      *topkNode
	peak      int // high-water heap length
	// Scratch pattern buffers: patA/patB serve heap comparisons, popBuf
	// holds the most recently reconstructed (popped) pattern.
	patA, patB, popBuf []seq.EventID
}

func (f *topkFrontier) len() int { return len(f.heap) }

// reset prepares the frontier for a fresh search, retaining the arena
// blocks and scratch buffers so warm repeat runs allocate nothing.
func (f *topkFrontier) reset() {
	for i := range f.heap {
		f.heap[i] = nil
	}
	f.heap = f.heap[:0]
	f.free = nil
	f.blockUsed = 0
	if len(f.blocks) > 1 {
		// Reuse from the first block again; keep only one block so a
		// one-off huge frontier does not pin its high-water memory.
		f.blocks = f.blocks[:1]
	}
	f.peak = 0
}

// alloc hands out a zeroed node from the free list or the arena.
func (f *topkFrontier) alloc() *topkNode {
	if n := f.free; n != nil {
		f.free = n.nextFree
		*n = topkNode{}
		return n
	}
	if len(f.blocks) == 0 || f.blockUsed == topkArenaBlock {
		f.blocks = append(f.blocks, make([]topkNode, topkArenaBlock))
		f.blockUsed = 0
	}
	blk := f.blocks[len(f.blocks)-1]
	n := &blk[f.blockUsed]
	f.blockUsed++
	*n = topkNode{}
	return n
}

// release returns a node to the free list and cascades up the parent
// chain: a parent whose last child is gone and which was itself already
// popped is unreachable and is freed too.
func (f *topkFrontier) release(n *topkNode) {
	for n != nil {
		p := n.parent
		n.parent = nil
		n.nextFree = f.free
		f.free = n
		if p == nil {
			return
		}
		p.kids--
		if !p.popped || p.kids > 0 {
			return
		}
		n = p
	}
}

// recycle marks a popped node visited and frees it (and any freeable
// ancestors) once no children keep its pattern chain alive.
func (f *topkFrontier) recycle(n *topkNode) {
	n.popped = true
	if n.kids == 0 {
		f.release(n)
	}
}

// pushChild allocates and pushes the child of parent (nil for seeds)
// reached by event e, keyed by sup: its exact support, or an upper bound
// on it when bound is set.
func (f *topkFrontier) pushChild(parent *topkNode, e seq.EventID, sup int, bound bool) {
	n := f.alloc()
	n.parent = parent
	n.event = e
	n.sup = int32(sup)
	n.bound = bound
	n.depth = 1
	if parent != nil {
		n.depth = parent.depth + 1
		parent.kids++
	}
	f.push(n)
}

// settle gives a popped bound-only node its exact support sup and reports
// whether the caller should visit it now: when the key was exact already,
// or when the re-keyed node still ranks before the heap's top (a push
// would pop it straight back). Otherwise it is pushed back at its exact
// support, or released when it has no instance at all or (sharded
// search) ranks after the bound's k-th best candidate. pattern is n's
// reconstructed pattern.
func (f *topkFrontier) settle(n *topkNode, sup int, pattern []seq.EventID, bound *topkBound) bool {
	n.bound = false
	if int(n.sup) == sup {
		return true
	}
	n.sup = int32(sup)
	if sup == 0 || (bound != nil && bound.ranksAfter(sup, pattern)) {
		f.recycle(n) // never expanded, so no children pin it
		return false
	}
	if f.len() == 0 || f.less(n, f.heap[0]) {
		return true
	}
	f.push(n)
	return false
}

// arenaBytes reports the node-arena footprint (current blocks; reset keeps
// at most one).
func (f *topkFrontier) arenaBytes() int64 {
	return int64(len(f.blocks)) * topkArenaBlock * topkNodeSize
}

// reconstruct materializes n's pattern into the frontier's pop buffer,
// valid until the next reconstruct call.
func (f *topkFrontier) reconstruct(n *topkNode) []seq.EventID {
	f.popBuf = appendNodePattern(f.popBuf, n)
	return f.popBuf
}

// appendNodePattern writes n's pattern into dst[:n.depth] by walking the
// parent chain backwards.
func appendNodePattern(dst []seq.EventID, n *topkNode) []seq.EventID {
	d := int(n.depth)
	if cap(dst) < d {
		// Grow geometrically: the scratch buffers see ever longer
		// patterns as the search deepens.
		dst = make([]seq.EventID, d, max(d, 2*cap(dst), 8))
	} else {
		dst = dst[:d]
	}
	for ; n != nil; n = n.parent {
		d--
		dst[d] = n.event
	}
	return dst
}

// less orders the heap: descending support, ties broken by ascending
// lexicographic pattern (deterministic pop order). Tie comparisons
// reconstruct both patterns into the frontier's scratch buffers; patterns
// in a growth tree are unique, so the order is total.
func (f *topkFrontier) less(a, b *topkNode) bool {
	if a.sup != b.sup {
		return a.sup > b.sup
	}
	f.patA = appendNodePattern(f.patA, a)
	f.patB = appendNodePattern(f.patB, b)
	return lessEvents(f.patA, f.patB)
}

func (f *topkFrontier) push(n *topkNode) {
	f.heap = append(f.heap, n)
	i := len(f.heap) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !f.less(f.heap[i], f.heap[p]) {
			break
		}
		f.heap[i], f.heap[p] = f.heap[p], f.heap[i]
		i = p
	}
	if len(f.heap) > f.peak {
		f.peak = len(f.heap)
	}
}

func (f *topkFrontier) pop() *topkNode {
	h := f.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = nil
	h = h[:last]
	f.heap = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < last && f.less(h[l], h[best]) {
			best = l
		}
		if r < last && f.less(h[r], h[best]) {
			best = r
		}
		if best == i {
			return top
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// topkBound is the shared coordination point of the parallel best-first
// search: the k best candidate patterns seen so far, kept in a min-heap
// with the worst retained candidate at the root, plus its support in an
// atomic so the no-contention reject path costs one load. The k-th best
// rank only ever improves, which is what makes discarding against it safe.
type topkBound struct {
	k        int
	worstSup atomic.Int64 // support of the k-th best candidate; -1 until k were seen
	mu       sync.Mutex
	cands    []topkCand
}

type topkCand struct {
	pattern []seq.EventID
	sup     int
}

// ranksBefore reports whether candidate a outranks b in the sequential
// emission order: higher support first, ties broken by lexicographically
// smaller pattern.
func (a topkCand) ranksBefore(b topkCand) bool {
	if a.sup != b.sup {
		return a.sup > b.sup
	}
	return lessEvents(a.pattern, b.pattern)
}

func newTopkBound(k int) *topkBound {
	b := &topkBound{k: k, cands: make([]topkCand, 0, k)}
	b.worstSup.Store(-1)
	return b
}

// supBelow reports whether a support value ranks strictly below the k-th
// best candidate's support — an upper bound that low proves a subtree can
// never reach the top k, with no pattern comparison needed. Callers pass
// exact supports or upper bounds on them (a child's per-sequence bound, a
// bound-only node's key); either way every pattern of the subtree has
// support at most sup.
func (b *topkBound) supBelow(sup int) bool {
	w := b.worstSup.Load()
	return w >= 0 && int64(sup) < w
}

// ranksAfter reports whether a frontier node with the given support and
// pattern ranks after the current k-th best candidate — in which case the
// node and its entire subtree (support can only drop, patterns only grow
// lexicographically later) are irrelevant. sup may be a bound-only node's
// key: the node's exact support is at most the key and its pattern is
// the one given, so it ranks no earlier than (key, pattern) does.
func (b *topkBound) ranksAfter(sup int, pattern []seq.EventID) bool {
	w := b.worstSup.Load()
	if w < 0 || int64(sup) > w {
		return false
	}
	if int64(sup) < w {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.cands) < b.k {
		return false
	}
	worst := b.cands[0]
	return sup < worst.sup || (sup == worst.sup && !lessEvents(pattern, worst.pattern))
}

// offer submits a candidate result. The pattern slice is copied only when
// the candidate is actually retained, so callers may reuse their buffer.
func (b *topkBound) offer(pattern []seq.EventID, sup int) {
	if w := b.worstSup.Load(); w >= 0 && int64(sup) < w {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.cands) < b.k {
		b.cands = append(b.cands, topkCand{pattern: append([]seq.EventID(nil), pattern...), sup: sup})
		b.siftUp(len(b.cands) - 1)
		if len(b.cands) == b.k {
			b.worstSup.Store(int64(b.cands[0].sup))
		}
		return
	}
	c := topkCand{pattern: pattern, sup: sup}
	if !c.ranksBefore(b.cands[0]) {
		return
	}
	c.pattern = append([]seq.EventID(nil), pattern...)
	b.cands[0] = c
	b.siftDown(0)
	b.worstSup.Store(int64(b.cands[0].sup))
}

// ranked returns the retained candidates in rank order (the sequential
// emission order).
func (b *topkBound) ranked() []Pattern {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]topkCand, len(b.cands))
	copy(out, b.cands)
	sort.Slice(out, func(i, j int) bool { return out[i].ranksBefore(out[j]) })
	patterns := make([]Pattern, len(out))
	for i, c := range out {
		patterns[i] = Pattern{Events: c.pattern, Support: c.sup}
	}
	return patterns
}

// Heap invariant: cands[0] is the WORST retained candidate (every child
// ranks before its parent), so eviction replaces the root.
func (b *topkBound) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if b.cands[p].ranksBefore(b.cands[i]) {
			b.cands[i], b.cands[p] = b.cands[p], b.cands[i]
			i = p
			continue
		}
		return
	}
}

func (b *topkBound) siftDown(i int) {
	n := len(b.cands)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && b.cands[worst].ranksBefore(b.cands[l]) {
			worst = l
		}
		if r < n && b.cands[worst].ranksBefore(b.cands[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		b.cands[i], b.cands[worst] = b.cands[worst], b.cands[i]
		i = worst
	}
}
