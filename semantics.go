package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gapped"
)

// Semantics selects the occurrence semantics of a mining run: what counts
// as "the pattern occurs here" and therefore what its support measures.
// The zero value is SemanticsRepetitive, the paper's definition. Parse
// wire/flag names with ParseSemantics; the same names are accepted by the
// server's "semantics" JSON field and the gsgrow -semantics flag. See the
// README's "Mining modes" matrix for the mode × surface × paper map.
type Semantics int

const (
	// SemanticsRepetitive is the paper's repetitive support (Ding, Lo,
	// Han, Khoo, ICDE 2009): the maximum number of pairwise
	// non-overlapping instances, where two instances overlap only if they
	// share a position at the same pattern index. The default.
	SemanticsRepetitive Semantics = iota
	// SemanticsNonOverlapping counts disjoint occurrence windows: each
	// occurrence must start strictly after the previous one's last event
	// (the stricter non-overlapping semantics of Geng et al.,
	// arXiv:2311.09667). Support is at most the repetitive support.
	SemanticsNonOverlapping
	// SemanticsCompressed mines the closed pattern set and returns a
	// small set of representatives that δ-covers it (Tong et al.,
	// arXiv:0906.0885): every closed pattern is a subsequence of some
	// representative whose support is within a (1-CompressDelta) factor.
	// MaxPatterns caps the number of representatives.
	SemanticsCompressed
	// SemanticsGapped mines under a gap constraint: every gap between
	// consecutive pattern events must lie in [MinGap, MaxGap] (the
	// paper's Section V future-work extension). Gap-constrained support
	// is not monotone under arbitrary sub-patterns (deleting a middle
	// event merges two gaps), so the result set is closed under prefixes
	// only, and support is a per-sequence max-flow computation because
	// greedy leftmost growth is not optimal under gap constraints.
	SemanticsGapped
)

// DefaultCompressDelta is the support tolerance used by
// SemanticsCompressed when Options.CompressDelta is zero.
const DefaultCompressDelta = core.DefaultCompressDelta

// semanticsNames are the wire/flag names, indexed by Semantics.
var semanticsNames = [...]string{"repetitive", "nonoverlap", "compressed", "gapped"}

// String returns the wire/flag name of the semantics ("repetitive",
// "nonoverlap", "compressed", "gapped").
func (s Semantics) String() string {
	if s.known() {
		return semanticsNames[s]
	}
	return fmt.Sprintf("Semantics(%d)", int(s))
}

func (s Semantics) known() bool { return s >= 0 && int(s) < len(semanticsNames) }

// MarshalText encodes the semantics as its wire name, the "semantics"
// field of an HTTP mine body or an experiment spec query. A value outside
// the known modes is an error wrapping ErrUnknownSemantics.
func (s Semantics) MarshalText() ([]byte, error) {
	if !s.known() {
		return nil, fmt.Errorf("repro: %w %s", ErrUnknownSemantics, s)
	}
	return []byte(s.String()), nil
}

// UnmarshalText reads a wire name, as ParseSemantics does: the empty name
// is SemanticsRepetitive and an unknown one wraps ErrUnknownSemantics.
func (s *Semantics) UnmarshalText(text []byte) (err error) {
	*s, err = ParseSemantics(string(text))
	return err
}

// ParseSemantics maps a wire/flag name to a Semantics. The empty string
// selects the default (SemanticsRepetitive); unknown names return an
// error wrapping ErrUnknownSemantics.
func ParseSemantics(name string) (Semantics, error) {
	if name == "" {
		return SemanticsRepetitive, nil
	}
	for s, n := range semanticsNames {
		if n == name {
			return Semantics(s), nil
		}
	}
	return 0, fmt.Errorf("repro: %w %q (want repetitive, nonoverlap, compressed, or gapped)", ErrUnknownSemantics, name)
}

// coreSemantics maps the query's semantics to the kernel's strategy
// value; the gapped strategy carries the query's gap range.
func coreSemantics(o Options) core.Semantics {
	switch o.Semantics {
	case SemanticsNonOverlapping:
		return core.NonOverlapping
	case SemanticsCompressed:
		return core.Compressed
	case SemanticsGapped:
		return gapped.Semantics{MinGap: o.MinGap, MaxGap: o.MaxGap}
	default:
		return nil
	}
}
