package core

import (
	"context"
	"fmt"

	"repro/internal/seq"
)

// IndexView is what a mining entry point needs from its caller: anything
// that can hand over a sealed (immutable for the duration of the run)
// inverted index. *seq.Index satisfies it directly; snapshot types from
// higher layers (e.g. internal/store.Snapshot) satisfy it by returning
// their sealed index, so miners can be pointed at a snapshot without the
// caller unwrapping it. The kernel extracts the concrete index once at
// entry — the hot path stays free of interface dispatch.
type IndexView interface {
	MiningIndex() *seq.Index
}

// Options configures a mining run.
type Options struct {
	// MinSupport is the repetitive-support threshold min_sup (>= 1).
	MinSupport int

	// Ctx, when non-nil, cancels the mining run: the DFS polls the context
	// every ctxCheckInterval nodes and stops early once it is done. A
	// cancelled run returns the patterns found so far with Stats.Truncated
	// set — the same contract as MaxPatterns — and no error, so partial
	// results remain usable.
	Ctx context.Context

	// Closed selects CloGSgrow (mine closed frequent patterns) instead of
	// GSgrow (mine all frequent patterns).
	Closed bool

	// MaxPatternLength bounds the length of mined patterns; 0 means
	// unbounded. The paper's algorithms are unbounded; the bound is a
	// practical guard for exploratory runs.
	MaxPatternLength int

	// MaxPatterns stops mining after this many patterns have been emitted;
	// 0 means unbounded. The run is marked Truncated in the stats. This is
	// how the harness imitates the paper's "cut-off" points where GSgrow
	// "takes too long to complete". The cut is deterministic in every
	// mode: MineParallel returns exactly the first MaxPatterns patterns
	// of the sequential emission order (enforced by a shared bound over
	// emission-order keys; see scheduler.go), so a budgeted result never
	// depends on worker count or scheduling.
	MaxPatterns int

	// CollectInstances attaches the leftmost support set (with full
	// landmarks) to every emitted pattern. Instances are reconstructed from
	// the compressed representation at emission time, costing an extra
	// O(|P| · sup · log L) per emitted pattern.
	CollectInstances bool

	// DisableLBCheck turns off landmark border checking (Theorem 5) in
	// CloGSgrow, leaving only closure checking (Theorem 4). Output is
	// unchanged; only the search-space pruning is lost. Ablation A2.
	DisableLBCheck bool

	// FullAlphabetCandidates disables the candidate-event lists and tries
	// every frequent event at every growth step, as in the worst-case bound
	// of Theorem 6. Output is unchanged. Ablation A1.
	FullAlphabetCandidates bool

	// OnPattern, when non-nil, streams every emitted pattern. Returning
	// false stops the mining run (marked Truncated). When OnPattern is set,
	// patterns are still accumulated in Result.Patterns unless
	// DiscardPatterns is also set.
	OnPattern func(Pattern) bool

	// DiscardPatterns suppresses accumulation in Result.Patterns; only
	// counts and stats are kept. Useful with OnPattern for huge runs and
	// used by the benchmark harness when only pattern counts matter.
	DiscardPatterns bool

	// Semantics selects the occurrence-semantics strategy. nil (the zero
	// value) and Repetitive are equivalent and run the paper's
	// GSgrow/CloGSgrow behavior on the inlined hot path; NonOverlapping
	// and Compressed are the built-in alternatives, and internal/gapped
	// supplies the gap-constrained one. See semantics.go for the strategy
	// contract.
	Semantics Semantics

	// CompressDelta is the support tolerance δ of the Compressed strategy
	// (in [0, 1)); 0 selects DefaultCompressDelta. Setting it with any
	// other strategy is an error.
	CompressDelta float64
}

// Validate reports whether the options are usable.
func (o Options) Validate() error {
	if o.MinSupport < 1 {
		return fmt.Errorf("core: MinSupport must be >= 1, got %d", o.MinSupport)
	}
	if o.MaxPatternLength < 0 {
		return fmt.Errorf("core: MaxPatternLength must be >= 0, got %d", o.MaxPatternLength)
	}
	if o.MaxPatterns < 0 {
		return fmt.Errorf("core: MaxPatterns must be >= 0, got %d", o.MaxPatterns)
	}
	if o.CompressDelta < 0 || o.CompressDelta >= 1 {
		return fmt.Errorf("core: CompressDelta must be in [0, 1), got %g", o.CompressDelta)
	}
	if o.CompressDelta != 0 && o.Semantics != Compressed {
		return fmt.Errorf("core: CompressDelta requires the Compressed semantics")
	}
	if o.Closed && o.Semantics != nil && !o.Semantics.SupportsClosed() {
		return fmt.Errorf("core: closed mining is not defined under %s semantics", o.Semantics.Name())
	}
	return nil
}
