package core

import (
	"sort"
	"time"

	"repro/internal/seq"
)

// Pattern is one mined frequent pattern.
type Pattern struct {
	// Events is the pattern e1 e2 ... em as dictionary IDs.
	Events []seq.EventID
	// Support is the repetitive support sup(P).
	Support int
	// Instances is the leftmost support set with full landmarks, present
	// only when Options.CollectInstances is set.
	Instances FullSet
}

// Len returns the pattern length m.
func (p Pattern) Len() int { return len(p.Events) }

// String formats the pattern using the database dictionary held by db.
func (p Pattern) String(db *seq.DB) string { return db.PatternString(p.Events) }

// MineStats are counters describing a mining run; the ablation benchmarks
// and several tests assert on them.
type MineStats struct {
	// NodesVisited counts DFS nodes entered with support >= min_sup
	// (frequent patterns considered, whether or not emitted).
	NodesVisited int
	// INSgrowCalls counts instance-growth invocations during pattern
	// growth (not counting closure-check chains). Top-k counts every
	// growth it performs, including the prefix chain each pop re-grows.
	INSgrowCalls int
	// ClosureChainGrowths counts instance-growth steps spent inside
	// closure checking (insertion/prepend chains).
	ClosureChainGrowths int
	// MemoHits counts closure-check chains skipped because an ancestor
	// node on the DFS path already refuted the same (gap, event)
	// extension at the same support.
	MemoHits int
	// ClosureChecks counts patterns that underwent closure checking.
	ClosureChecks int
	// LBPrunes counts DFS subtrees pruned by landmark border checking.
	LBPrunes int
	// NonClosedSkipped counts frequent patterns suppressed from the output
	// because some extension had equal support.
	NonClosedSkipped int
	// MaxDepth is the deepest pattern length reached.
	MaxDepth int
	// TasksDonated counts DFS branches a parallel worker published for
	// stealing; TasksStolen counts tasks a worker took from another
	// worker's deque (always 0 in sequential runs — and TasksStolen also
	// counts the initial seed tasks a worker drained from a peer's deque,
	// so it can be non-zero even when no mid-subtree donation occurred).
	TasksDonated int
	TasksStolen  int
	// StealSetupGrowths counts the instance-growth steps spent
	// reconstructing the prefix support-set chain of stolen closed-mining
	// tasks. They are scheduler overhead, kept out of INSgrowCalls so that
	// the work counters of a parallel run remain comparable to the
	// sequential run's.
	StealSetupGrowths int
	// FrontierPeak is the high-water number of frontier nodes held by a
	// best-first top-k search (summed across shards in parallel runs);
	// 0 for threshold mining, which keeps no frontier.
	FrontierPeak int
	// ArenaBytes is the node-arena footprint backing that frontier, in
	// bytes (summed across shards in parallel runs).
	ArenaBytes int64
	// WorkersRequested and WorkersEffective report the worker count the
	// caller asked for and the count actually used after clamping to the
	// scheduler cap and GOMAXPROCS. Sequential runs report 1/1.
	WorkersRequested int
	WorkersEffective int
	// Truncated records that the run stopped early (MaxPatterns reached or
	// OnPattern returned false), so the result set may be incomplete.
	Truncated bool
	// Duration is the wall-clock mining time.
	Duration time.Duration
}

// Result is the output of a mining run.
type Result struct {
	Patterns []Pattern
	// NumPatterns is the number of emitted patterns; it equals
	// len(Patterns) unless DiscardPatterns was set.
	NumPatterns int
	Stats       MineStats
}

// SortByLengthSupport orders patterns by descending length, then descending
// support, then lexicographic events — the ranking used by the case study
// (Section IV-B step 3).
func (r *Result) SortByLengthSupport() {
	sort.SliceStable(r.Patterns, func(a, b int) bool {
		pa, pb := r.Patterns[a], r.Patterns[b]
		if len(pa.Events) != len(pb.Events) {
			return len(pa.Events) > len(pb.Events)
		}
		if pa.Support != pb.Support {
			return pa.Support > pb.Support
		}
		return lessEvents(pa.Events, pb.Events)
	})
}

// SortLex orders patterns lexicographically by events (DFS preorder of the
// pattern space), which is the canonical order used when comparing two
// result sets in tests.
func (r *Result) SortLex() {
	sort.SliceStable(r.Patterns, func(a, b int) bool {
		return lessEvents(r.Patterns[a].Events, r.Patterns[b].Events)
	})
}

func lessEvents(a, b []seq.EventID) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// MaxSupport returns the largest support among emitted patterns, 0 when
// none were emitted.
func (r *Result) MaxSupport() int {
	m := 0
	for _, p := range r.Patterns {
		if p.Support > m {
			m = p.Support
		}
	}
	return m
}

// LongestPattern returns the first longest pattern in the result, or a zero
// Pattern when the result is empty.
func (r *Result) LongestPattern() Pattern {
	var best Pattern
	for _, p := range r.Patterns {
		if len(p.Events) > len(best.Events) {
			best = p
		}
	}
	return best
}
