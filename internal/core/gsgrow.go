package core

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/seq"
)

// miner carries the state of one depth-first mining run. The pattern and
// the chain of prefix support sets live on an explicit stack so that
// closure checking can re-grow insertion chains from any prefix without
// recomputation (the space bound of Theorem 7: O(sup_max · len_max)).
//
// All transient buffers come from per-miner free-lists (setPool, candPool)
// and scratch slices, so steady-state mining performs no heap allocations:
// every support set and candidate list produced at a DFS node is recycled
// when the node's subtree completes. Miners are single-goroutine state;
// MineParallel gives each worker its own miner (and hence its own arena).
type miner struct {
	ix  *seq.Index
	opt Options

	// sem is the per-node semantics hook, nil whenever the node behavior
	// is the inlined repetitive default (see nodeSemantics): the default
	// hot path pays a single nil check, no interface dispatch.
	sem Semantics
	// candFloor is the per-sequence support bound candidates() applies
	// (see candidateFloor); 0 lists every extending event.
	candFloor int32

	freqEvents []seq.EventID // events with singleton support >= min_sup

	pattern []seq.EventID // current DFS pattern e1..em
	chain   []Set         // chain[j] = leftmost support set of pattern[:j+1]
	// candStack[j] caches candidates(chain[j]) computed when the DFS grew
	// from depth j+1; closure checking reuses it for insertion candidates
	// instead of rescanning the index.
	candStack [][]seq.EventID

	// frames mirrors the recursion: one entry per active DFS node, holding
	// that node's candidate list and loop cursor. The owner consumes
	// candidates from the front; work-stealing donation consumes them from
	// the back of the shallowest frame (see maybeDonate). Sequential runs
	// pay one append/truncate per node for it.
	frames []wsFrame

	scan candScan // scratch for candidates()
	// scratchA/scratchB are the ping-pong buffers of closure-check chain
	// growth (see checkNonAppend). Only their capacity is meaningful
	// between uses: checkNonAppend stores them back as returned by the
	// last chain step and re-slices to [:0] before each candidate.
	scratchA, scratchB Set

	// setPool and candPool are free-lists of support-set and candidate
	// buffers (stored with length 0). getSet/putSet and getCands/putCands
	// recycle them across DFS nodes.
	setPool  []Set
	candPool [][]seq.EventID
	// seqsBuf/runsBuf back sequenceRunsOf, eligBuf backs eligibleEvents,
	// gapCandBuf backs insertionCandidates. Each is consumed before the
	// next call that overwrites it.
	seqsBuf    []int32
	runsBuf    []int32
	eligBuf    []seq.EventID
	gapCandBuf []seq.EventID

	// memoSup caches refuted closure-check chains within the current DFS
	// path as a flat (gap rows × numEvents) table: entry (g, e') holds
	// the support s at which the insertion/prepend extension was refuted
	// (proved sup < s), or 0. Entries are valid for every descendant with
	// the same support (Apriori: appending suffix events cannot raise the
	// chain's support) and are reverted via memoLog when the DFS leaves
	// the node that added them.
	memoSup   []int32
	memoRows  int
	numEvents int
	memoLog   []memoUndo

	// Parallel-mode coordination (nil/unused in sequential runs): sched
	// and deque tie the miner to its work-stealing worker slot, tracker
	// enforces the deterministic MaxPatterns budget, stopAll is set when
	// any worker must stop everyone (callback returned false, context
	// cancelled).
	sched   *wsScheduler
	deque   *wsDeque
	tracker *budgetTracker
	stopAll *atomic.Bool

	// path is the branch path of the current DFS node (one entry per
	// pattern event: seed index, then the candidate index chosen at each
	// level); rootLen is the pattern length of the current task's root.
	// keyBuf is the reusable emission-key buffer (path + sentinel).
	path    []int32
	rootLen int
	keyBuf  []int32

	// splitPending marks that the local DFS moved past a point where
	// donated subtrees belong in the sequential emission order, so the
	// next emission must open a fresh result block. blockMarks delimits
	// the blocks of the task being run; blocks accumulates every finished
	// block of this worker.
	splitPending bool
	blockMarks   []blockMark
	blocks       []resultBlock

	ctxTick int // nodes since the last Options.Ctx poll

	res      *Result
	firstRes Result // newMiner points res here: one allocation fewer
	stopped  bool
}

// wsFrame is the explicit per-node candidate cursor the work-stealing
// scheduler donates from. next advances from the front as the owner
// recurses; end retreats from the back as branches are donated.
type wsFrame struct {
	cands       []seq.EventID
	next, end   int
	I           Set  // the node's support set (donation re-grows from it)
	donated     bool // some branch of this frame was given away
	appendEqual bool // closed mode: an append extension kept the support
	noRecurse   bool // children are not explored (length cap): no donation
}

// blockMark opens a result block at index start of res.Patterns.
type blockMark struct {
	start int
	key   []int32
}

// newMiner returns a ready miner for one sequential run or one parallel
// worker. The scratch sizes depend only on the dictionary, so a miner can
// be reused across seed events (MineParallel's workers do).
func newMiner(ix *seq.Index, opt Options) *miner {
	return newMinerWithSeeds(ix, opt, ix.FrequentEvents(opt.MinSupport))
}

// newMinerWithSeeds is newMiner with a precomputed frequent-event list:
// parallel runs share one list across all workers instead of rescanning
// the index per worker.
func newMinerWithSeeds(ix *seq.Index, opt Options, seeds []seq.EventID) *miner {
	numEvents := ix.DB().Dict.Size()
	// Depth-indexed stacks start with room for typical pattern lengths so
	// the whole-run allocation count stays flat (they grow on demand for
	// unusually deep mines and keep their capacity across seeds/tasks).
	// path and keyBuf split one backing array; appending past a hint's
	// capacity simply migrates that stack to its own array. The initial
	// Result is the miner's own (embedded) — runs that reset m.res swap in
	// fresh ones.
	const depthHint = 24
	pathBuf := make([]int32, 2*depthHint+1)
	m := &miner{
		ix:         ix,
		opt:        opt,
		sem:        nodeSemantics(opt.Semantics),
		candFloor:  candidateFloor(opt),
		freqEvents: seeds,
		scan:       newCandScan(numEvents),
		numEvents:  numEvents,
		pattern:    make([]seq.EventID, 0, depthHint),
		path:       pathBuf[0:0:depthHint],
		keyBuf:     pathBuf[depthHint:depthHint],
		chain:      make([]Set, 0, depthHint),
		candStack:  make([][]seq.EventID, 0, depthHint),
		frames:     make([]wsFrame, 0, depthHint),
	}
	m.res = &m.firstRes
	return m
}

// getSet pops a recycled support-set buffer (len 0) or allocates one.
func (m *miner) getSet(capHint int) Set {
	if n := len(m.setPool); n > 0 {
		s := m.setPool[n-1]
		m.setPool = m.setPool[:n-1]
		return s[:0]
	}
	return make(Set, 0, capHint)
}

// putSet returns a support-set buffer to the pool.
func (m *miner) putSet(s Set) {
	if cap(s) > 0 {
		m.setPool = append(m.setPool, s[:0])
	}
}

// getCands pops a recycled candidate-list buffer (len 0) or allocates one.
func (m *miner) getCands() []seq.EventID {
	if n := len(m.candPool); n > 0 {
		c := m.candPool[n-1]
		m.candPool = m.candPool[:n-1]
		return c[:0]
	}
	return make([]seq.EventID, 0, 16)
}

// putCands returns a candidate-list buffer to the pool.
func (m *miner) putCands(c []seq.EventID) {
	if cap(c) > 0 {
		m.candPool = append(m.candPool, c[:0])
	}
}

// Mine runs GSgrow (Algorithm 3) or, when opt.Closed is set, CloGSgrow
// (Algorithm 4) over the indexed database and returns every (closed)
// pattern with repetitive support at least opt.MinSupport.
//
// Patterns are discovered by depth-first pattern growth: all frequent
// size-1 patterns are seeded with their full occurrence lists as support
// sets, and each DFS step extends the current support set with one instance
// growth per candidate event. In closed mode, patterns are emitted in DFS
// post-order (the closure verdict needs the append extensions, which the
// DFS computes anyway); in all-patterns mode they are emitted in pre-order.
//
// The index view must stay unchanged for the duration of the run; a
// snapshot from internal/store guarantees that by construction.
func Mine(v IndexView, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ix := v.MiningIndex()
	start := time.Now()
	runOpt := opt
	if opt.Semantics != nil {
		runOpt = opt.Semantics.SearchOptions(opt)
	}
	m := newMiner(ix, runOpt)
	if ctxDone(opt.Ctx) {
		m.res.Stats.Truncated = true
		m.stopped = true
	}
	for i, e := range m.freqEvents {
		if m.stopped {
			break
		}
		m.mineSeed(i, e)
	}
	res := m.res
	if opt.Semantics != nil {
		res = opt.Semantics.Finalize(ix, opt, res)
	}
	res.Stats.WorkersRequested = 1
	res.Stats.WorkersEffective = 1
	res.Stats.Duration = time.Since(start)
	return res, nil
}

// mineSeed runs the DFS rooted at the size-1 pattern e (the idx-th
// frequent event — the root of the branch path), recycling the root
// support set afterwards. The closure-check memo is empty between seeds
// (every growClosed reverts its own entries), so per-seed subtrees are
// independent — the property parallel mining relies on for determinism.
func (m *miner) mineSeed(idx int, e seq.EventID) {
	I := m.singletonInto(m.getSet(m.ix.SingletonSupport(e)), e)
	m.pattern = append(m.pattern[:0], e)
	m.path = append(m.path[:0], int32(idx))
	m.rootLen = 1
	m.chain = append(m.chain[:0], I)
	if m.opt.Closed {
		m.growClosed(I)
	} else {
		m.grow(I)
	}
	m.putSet(I)
}

// grow is subroutine mineFre of Algorithm 3: the pattern on m.pattern is
// frequent with support set I; emit it and extend depth-first. The
// candidate loop runs over an explicit frame so that maybeDonate can hand
// the untaken tail of any ancestor's candidates to an idle worker.
func (m *miner) grow(I Set) {
	if m.tracker != nil && m.tracker.pruneSubtree(m.path) {
		return
	}
	m.enterNode()
	if m.stopped {
		return
	}
	sup := len(I)
	if m.sem != nil {
		// Strategy support is anti-monotone under append, so a node below
		// threshold takes its whole subtree with it.
		if sup = m.sem.Support(m.ix, m.pattern, I); sup < m.opt.MinSupport {
			return
		}
	}
	m.emit(I, sup)
	if m.stopped {
		return
	}
	if m.tracker != nil && m.tracker.pruneSubtree(m.path) {
		// The node's own emission key is minimal in its subtree
		// (pre-order), so a rejected node means a dead subtree.
		return
	}
	if m.opt.MaxPatternLength > 0 && len(m.pattern) >= m.opt.MaxPatternLength {
		return
	}
	var cands []seq.EventID
	pooled := false
	if m.opt.FullAlphabetCandidates {
		cands = m.allFrequentEvents()
	} else {
		cands = m.candidates(I)
		pooled = true
	}
	m.candStack = append(m.candStack, cands)
	// The loop cursors live in locals for speed; the frame mirrors them
	// for maybeDonate, which only ever runs inside the recursive child
	// call (same goroutine), so next is synced before recursing and end —
	// which donation moves down — is reloaded after.
	fi := len(m.frames)
	m.frames = append(m.frames, wsFrame{cands: cands, end: len(cands), I: I})
	next, end := 0, len(cands)
	for next < end {
		ci := next
		next++
		e := cands[ci]
		m.res.Stats.INSgrowCalls++
		I2 := m.growInto(m.getSet(len(I)), I, e)
		if len(I2) < m.opt.MinSupport {
			m.putSet(I2)
			continue
		}
		m.frames[fi].next = next
		m.pattern = append(m.pattern, e)
		m.path = append(m.path, int32(ci))
		m.chain = append(m.chain, I2)
		m.grow(I2)
		m.pattern = m.pattern[:len(m.pattern)-1]
		m.path = m.path[:len(m.path)-1]
		m.chain = m.chain[:len(m.chain)-1]
		m.putSet(I2)
		end = m.frames[fi].end
		if m.stopped {
			break
		}
	}
	if m.frames[fi].donated && next >= end && !m.stopped {
		// The local cursor crossed the donated region: everything this
		// task emits from here on follows the donated subtrees in
		// sequential order, so the next emission opens a new block.
		m.splitPending = true
	}
	m.frames = m.frames[:fi]
	m.candStack = m.candStack[:len(m.candStack)-1]
	if pooled {
		m.putCands(cands)
	}
}

// ctxDone reports whether a (possibly nil) context has been cancelled.
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// ctxCheckInterval is how many DFS nodes pass between context polls. The
// poll is two atomic loads, but amortizing it keeps cancellation cost
// unmeasurable on the hot path while still bounding the abort latency to a
// few hundred instance growths.
const ctxCheckInterval = 64

// ctxPoll is the amortized cancellation check shared by every miner: it
// bumps *tick and polls ctx only every ctxCheckInterval calls, reporting
// whether the run should stop. Callers apply their own stop side effects.
func ctxPoll(ctx context.Context, tick *int) bool {
	if ctx == nil {
		return false
	}
	*tick++
	if *tick < ctxCheckInterval {
		return false
	}
	*tick = 0
	return ctxDone(ctx)
}

func (m *miner) enterNode() {
	m.res.Stats.NodesVisited++
	if d := len(m.pattern); d > m.res.Stats.MaxDepth {
		m.res.Stats.MaxDepth = d
	}
	if ctxPoll(m.opt.Ctx, &m.ctxTick) {
		m.stopped = true
		m.res.Stats.Truncated = true
		if m.stopAll != nil {
			m.stopAll.Store(true)
		}
	}
	if m.sched != nil && !m.stopped {
		m.maybeDonate()
	}
}

// emit records the current pattern as part of the output, with sup the
// support under the active semantics (len(I) for the default). In
// counting-only runs (DiscardPatterns with no OnPattern callback) nothing
// is materialized — the pattern-copy allocation is skipped entirely. Under
// a parallel deterministic budget the tracker decides whether the pattern
// can still be among the first N of the merge order; sequential runs count
// against MaxPatterns directly.
func (m *miner) emit(I Set, sup int) {
	if m.stopAll != nil && m.stopAll.Load() {
		m.stopped = true
		return
	}
	if m.tracker != nil {
		if !m.tracker.offer(m.emissionKey()) {
			return
		}
		m.record(I, sup)
		return
	}
	m.record(I, sup)
	if m.stopped {
		return
	}
	if m.opt.MaxPatterns > 0 && m.res.NumPatterns >= m.opt.MaxPatterns {
		m.stopped = true
		m.res.Stats.Truncated = true
	}
}

// record materializes the current pattern into the result and the
// OnPattern stream, opening a new result block first when a steal point
// was crossed since the previous emission.
func (m *miner) record(I Set, sup int) {
	m.res.NumPatterns++
	if m.opt.DiscardPatterns && m.opt.OnPattern == nil {
		return
	}
	if m.sched != nil && !m.opt.DiscardPatterns && m.splitPending {
		m.blockMarks = append(m.blockMarks, blockMark{
			start: len(m.res.Patterns),
			key:   append([]int32(nil), m.emissionKey()...),
		})
		m.splitPending = false
	}
	p := Pattern{Events: append([]seq.EventID(nil), m.pattern...), Support: sup}
	if m.opt.CollectInstances {
		if m.sem != nil {
			p.Instances = m.sem.Instances(m.ix, p.Events)
		} else {
			p.Instances = ComputeSupportSet(m.ix, p.Events)
		}
	}
	if !m.opt.DiscardPatterns {
		m.res.Patterns = append(m.res.Patterns, p)
	}
	if m.opt.OnPattern != nil && !m.opt.OnPattern(p) {
		m.stopped = true
		m.res.Stats.Truncated = true
	}
}

// growInto is the strategy-aware appendGrow: the default (nil) hook stays
// on the inlined leftmost instance growth. Every growth of DFS driver
// state — candidate loops, donation, stolen-task setup — goes through
// here so a strategy sees a consistent set lineage.
func (m *miner) growInto(dst Set, I Set, e seq.EventID) Set {
	if m.sem != nil {
		return m.sem.Grow(dst, m.ix, I, e)
	}
	return appendGrow(dst, m.ix, I, e)
}

// singletonInto is the strategy-aware appendSingleton (see growInto).
func (m *miner) singletonInto(dst Set, e seq.EventID) Set {
	if m.sem != nil {
		return m.sem.Singleton(dst, m.ix, e)
	}
	return appendSingleton(dst, m.ix, e)
}

// emissionKey returns the order key of the current node's emission: the
// branch path plus a sentinel placing it before (pre-order, GSgrow) or
// after (post-order, CloGSgrow) its descendants. The buffer is reused;
// callers needing to retain the key must copy it.
func (m *miner) emissionKey() []int32 {
	sentinel := preSentinel
	if m.opt.Closed {
		sentinel = postSentinel
	}
	m.keyBuf = append(append(m.keyBuf[:0], m.path...), sentinel)
	return m.keyBuf
}
