package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/seq"
)

// MineParallel runs the same mining as Mine, fanned out over `workers`
// goroutines by the work-stealing scheduler (see scheduler.go): every
// frequent seed event starts as one task, and workers that run dry steal
// the shallowest published branches of busy workers' subtrees, so a single
// deep subtree no longer serializes the tail of the run. The inverted
// index is shared read-only; each worker owns its full DFS state (miner
// arena, memo, scratch), so the hot path takes no locks.
//
// The output is deterministic and identical to the sequential run —
// patterns, supports, and order — regardless of worker count or steal
// timing: every emission carries a (seed, branch-path) order key and the
// merge reassembles the sequential emission sequence from keyed blocks.
// Under a MaxPatterns budget the same guarantee holds: exactly the first
// MaxPatterns patterns of the sequential emission order are returned (a
// shared bound over order keys prunes everything that cannot be among
// them). Of the stats counters only MemoHits and ClosureChainGrowths may
// differ from the sequential run (a thief restarts a stolen subtree with
// an empty path-scoped closure-check memo), plus the scheduler's own
// TasksDonated/TasksStolen/StealSetupGrowths; every output-determining
// counter matches.
//
// OnPattern callbacks are serialized with a mutex but observe an
// unspecified order; a false return stops all workers. With a MaxPatterns
// budget the callback may additionally observe patterns that the final
// merge-order trim excludes from the returned Result.
func MineParallel(v IndexView, opt Options, workers int) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ix := v.MiningIndex()
	requested := workers
	if requested < 1 {
		requested = 1
	}
	workers = effectiveWorkers(workers)
	if workers <= 1 {
		res, err := Mine(ix, opt)
		if err != nil {
			return nil, err
		}
		res.Stats.WorkersRequested = requested
		return res, nil
	}
	start := time.Now()
	// The strategy may rewrite the options the search runs under (e.g.
	// Compressed defers output shaping to Finalize); runOpt is what the
	// workers execute, opt is what Finalize sees.
	runOpt := opt
	if opt.Semantics != nil {
		runOpt = opt.Semantics.SearchOptions(opt)
	}
	seeds := ix.FrequentEvents(runOpt.MinSupport)

	var stop atomic.Bool
	var tracker *budgetTracker
	if runOpt.MaxPatterns > 0 {
		tracker = newBudgetTracker(runOpt.MaxPatterns)
	}

	workerOpt := runOpt
	workerOpt.MaxPatterns = 0 // enforced through the shared tracker instead
	var cbMu sync.Mutex
	if runOpt.OnPattern != nil {
		inner := runOpt.OnPattern
		workerOpt.OnPattern = func(p Pattern) bool {
			cbMu.Lock()
			defer cbMu.Unlock()
			ok := inner(p)
			if !ok {
				stop.Store(true)
			}
			return ok
		}
	}

	sched := newScheduler(workers, &stop)
	// Seed the deques round-robin, heaviest seeds (by singleton support, a
	// cheap proxy for subtree size) first, so the initial distribution is
	// already balanced and stealing only has to fix what the proxy missed.
	// Seed tasks carry no support set — the executing worker materializes
	// it from its arena — so enqueuing every seed up front costs no
	// instance memory.
	for i, si := range sortSeedsByWork(ix, seeds) {
		sched.submit(sched.deques[i%workers], &wsTask{
			key:     []int32{int32(si)},
			pattern: []seq.EventID{seeds[si]},
		})
	}
	if ctxDone(opt.Ctx) {
		stop.Store(true)
	}

	miners := make([]*miner, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		m := newMinerWithSeeds(ix, workerOpt, seeds)
		m.sched = sched
		m.deque = sched.deques[w]
		m.tracker = tracker
		m.stopAll = &stop
		miners[w] = m
		wg.Add(1)
		go func(m *miner, w int) {
			defer wg.Done()
			sched.run(m, w)
		}(m, w)
	}
	wg.Wait()

	merged := &Result{}
	var blocks []resultBlock
	for _, m := range miners {
		merged.NumPatterns += m.res.NumPatterns
		mergeStats(&merged.Stats, &m.res.Stats)
		blocks = append(blocks, m.blocks...)
	}
	// Reassemble the sequential emission sequence: blocks are contiguous
	// runs of it, keyed by their first emission.
	sort.Slice(blocks, func(a, b int) bool { return keyCmp(blocks[a].key, blocks[b].key) < 0 })
	if !runOpt.DiscardPatterns {
		n := 0
		for _, b := range blocks {
			n += len(b.patterns)
		}
		merged.Patterns = make([]Pattern, 0, n)
		for _, b := range blocks {
			merged.Patterns = append(merged.Patterns, b.patterns...)
		}
	}
	if tracker != nil {
		// Deterministic budget: keep exactly the first MaxPatterns of the
		// merge order; later-keyed emissions that slipped in while the
		// bound was still loose are dropped here.
		if !runOpt.DiscardPatterns {
			if len(merged.Patterns) > runOpt.MaxPatterns {
				merged.Patterns = merged.Patterns[:runOpt.MaxPatterns]
			}
			merged.NumPatterns = len(merged.Patterns)
		} else {
			merged.NumPatterns = tracker.size()
		}
		if tracker.full() {
			merged.Stats.Truncated = true
		}
	}
	// stop is set by a cancelled context, a false-returning callback, or a
	// pre-cancelled run — all truncations. A cancellation that landed
	// after every worker finished cleanly left a complete result and sets
	// nothing.
	if stop.Load() {
		merged.Stats.Truncated = true
	}
	if opt.Semantics != nil {
		// The merged result is already in deterministic sequential order,
		// so the single Finalize pass sees the same input — and produces
		// the same output — at every worker count.
		merged = opt.Semantics.Finalize(ix, opt, merged)
	}
	merged.Stats.WorkersRequested = requested
	merged.Stats.WorkersEffective = workers
	merged.Stats.Duration = time.Since(start)
	return merged, nil
}

// maxProcsFn reports the CPU parallelism available to the process; a
// variable so tests on single-CPU machines can exercise real multi-worker
// runs (see SetMaxProcsForTest).
var maxProcsFn = func() int { return runtime.GOMAXPROCS(0) }

// effectiveWorkers clamps a requested worker count to the scheduler cap
// and to the available CPUs. Output is byte-identical at any worker count,
// so clamping is purely a performance decision: workers beyond GOMAXPROCS
// cannot run concurrently and only add scheduling and merge overhead
// (BENCH_PR9 measured 2× slowdowns from oversubscription on 1-CPU
// runners).
func effectiveWorkers(requested int) int {
	w := requested
	if w > maxParallelWorkers {
		w = maxParallelWorkers
	}
	if p := maxProcsFn(); w > p {
		w = p
	}
	return w
}

func mergeStats(dst, src *MineStats) {
	dst.NodesVisited += src.NodesVisited
	dst.INSgrowCalls += src.INSgrowCalls
	dst.ClosureChainGrowths += src.ClosureChainGrowths
	dst.MemoHits += src.MemoHits
	dst.ClosureChecks += src.ClosureChecks
	dst.LBPrunes += src.LBPrunes
	dst.NonClosedSkipped += src.NonClosedSkipped
	dst.TasksDonated += src.TasksDonated
	dst.TasksStolen += src.TasksStolen
	dst.StealSetupGrowths += src.StealSetupGrowths
	// Frontier stats sum the per-shard peaks/arenas: the shards exist
	// concurrently, so the sum is the run's aggregate footprint.
	// WorkersRequested/WorkersEffective are run-level, not per-worker, and
	// are set by the caller after merging.
	dst.FrontierPeak += src.FrontierPeak
	dst.ArenaBytes += src.ArenaBytes
	if src.MaxDepth > dst.MaxDepth {
		dst.MaxDepth = src.MaxDepth
	}
	dst.Truncated = dst.Truncated || src.Truncated
}

// sortSeedsByWork orders seed indices by descending singleton support, a
// cheap proxy for subtree size that improves the initial load balance when
// seeds vary wildly (work stealing corrects the rest at run time).
func sortSeedsByWork(ix *seq.Index, seeds []seq.EventID) []int {
	order := make([]int, len(seeds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ix.SingletonSupport(seeds[order[a]]) > ix.SingletonSupport(seeds[order[b]])
	})
	return order
}
