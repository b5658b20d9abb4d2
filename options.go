package repro

import "fmt"

// Validate reports whether the query can run. It is the one place the
// option rules live — the library, the gsgrow CLI and the HTTP service all
// reject a query through it — and every error wraps ErrInvalidOptions or
// ErrUnknownSemantics. Mining methods call it themselves; call it directly
// to reject a query before doing anything else with it.
func (o Options) Validate() error {
	switch {
	case !o.Semantics.known():
		return fmt.Errorf("repro: %w %s", ErrUnknownSemantics, o.Semantics)
	case o.TopK < 0:
		return invalidOptions("TopK must be >= 0, got %d", o.TopK)
	case o.TopK == 0 && o.MinSupport < 1:
		return invalidOptions("MinSupport must be >= 1 (got %d) unless TopK is set", o.MinSupport)
	case o.MaxPatternLength < 0 || o.MaxPatterns < 0 || o.Workers < 0:
		return invalidOptions("MaxPatternLength, MaxPatterns and Workers must be >= 0")
	case o.TopK > 0 && o.Semantics != SemanticsRepetitive:
		return invalidOptions("top-k search supports only repetitive semantics (got %s)", o.Semantics)
	// Top-k has no instance collection and k already is the pattern
	// budget; silently ignoring these would misreport what ran.
	case o.TopK > 0 && o.CollectInstances:
		return invalidOptions("CollectInstances is not supported in top-k mode")
	case o.TopK > 0 && o.MaxPatterns > 0:
		return invalidOptions("MaxPatterns conflicts with TopK (k already bounds the result)")
	case o.Semantics != SemanticsGapped && (o.MinGap != 0 || o.MaxGap != 0):
		return invalidOptions("MinGap/MaxGap require SemanticsGapped (got %s)", o.Semantics)
	case o.Semantics != SemanticsCompressed && o.CompressDelta != 0:
		return invalidOptions("CompressDelta requires SemanticsCompressed (got %s)", o.Semantics)
	case o.CompressDelta < 0 || o.CompressDelta >= 1:
		return invalidOptions("CompressDelta must be in [0, 1), got %g", o.CompressDelta)
	case o.Closed && (o.Semantics == SemanticsNonOverlapping || o.Semantics == SemanticsGapped):
		return invalidOptions("closed mining is not defined under %s semantics", o.Semantics)
	case o.Semantics == SemanticsGapped && (o.MinGap < 0 || o.MaxGap < o.MinGap):
		return invalidOptions("need 0 <= MinGap <= MaxGap, got [%d, %d]", o.MinGap, o.MaxGap)
	case o.Semantics == SemanticsGapped && o.CollectInstances:
		return invalidOptions("CollectInstances is not supported under gapped semantics")
	}
	return nil
}

func invalidOptions(format string, args ...any) error {
	return fmt.Errorf("repro: %w: %s", ErrInvalidOptions, fmt.Sprintf(format, args...))
}

// Canonical returns the query's canonical form: two queries with the same
// canonical form return the same patterns on the same snapshot, so the
// string serves as a result-cache key (the mining service keys its cache
// by it, prefixed with the database and snapshot identity). It covers
// exactly the fields that decide the result. Workers is left out (output
// is identical at every worker count), and so are Ctx, OnPattern and
// DiscardPatterns, which only shape how a run is delivered. Equivalent
// spellings collapse: MinSupport is dropped under TopK, which ignores it;
// Closed is always set under SemanticsCompressed, which always searches
// the closed set; and a zero CompressDelta reads as the default it
// selects.
func (o Options) Canonical() string {
	closed, minSup, delta := o.Closed, o.MinSupport, o.CompressDelta
	if o.TopK > 0 {
		minSup = 0
	}
	if o.Semantics == SemanticsCompressed {
		closed = true
		if delta == 0 {
			delta = DefaultCompressDelta
		}
	}
	return fmt.Sprintf("sem=%s closed=%t minsup=%d topk=%d maxlen=%d maxpat=%d inst=%t mingap=%d maxgap=%d delta=%g",
		o.Semantics, closed, minSup, o.TopK, o.MaxPatternLength, o.MaxPatterns, o.CollectInstances, o.MinGap, o.MaxGap, delta)
}

// Algorithm names the algorithm the query runs: GSgrow or CloGSgrow
// (the paper's), TopK or CloTopK (best-first top-k), GSgrow-NonOverlap,
// CRGSgrow (compressed representatives) or GapGSgrow (gap-constrained).
func (o Options) Algorithm() string {
	switch o.Semantics {
	case SemanticsNonOverlapping:
		return "GSgrow-NonOverlap"
	case SemanticsCompressed:
		return "CRGSgrow"
	case SemanticsGapped:
		return "GapGSgrow"
	}
	switch {
	case o.TopK > 0 && o.Closed:
		return "CloTopK"
	case o.TopK > 0:
		return "TopK"
	case o.Closed:
		return "CloGSgrow"
	}
	return "GSgrow"
}
