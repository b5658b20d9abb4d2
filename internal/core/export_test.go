package core

import "repro/internal/seq"

// SetMaxProcsForTest overrides the GOMAXPROCS-based worker clamp for the
// duration of a test, returning a restore func. The parallel paths are
// deterministic at any worker count, so tests raise the cap to exercise
// real multi-worker scheduling (stealing, sharded frontiers) even on
// single-CPU CI machines, where the production clamp would otherwise
// route every run through the sequential fallback.
func SetMaxProcsForTest(n int) func() {
	old := maxProcsFn
	maxProcsFn = func() int { return n }
	return func() { maxProcsFn = old }
}

// CandidateBoundsForTest grows pattern's leftmost support set from its
// first event and returns copies of the candidate list and per-event
// support bounds a miner under opt computes at that node.
func CandidateBoundsForTest(ix *seq.Index, opt Options, pattern []seq.EventID) ([]seq.EventID, []int32) {
	m := newMiner(ix, opt)
	I := appendSingleton(nil, ix, pattern[0])
	for _, e := range pattern[1:] {
		I = appendGrow(nil, ix, I, e)
	}
	cands, bounds := m.candidateBounds(I)
	return append([]seq.EventID(nil), cands...), append([]int32(nil), bounds...)
}
