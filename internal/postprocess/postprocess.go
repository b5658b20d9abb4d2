// Package postprocess implements the case-study filtering pipeline of
// Section IV-B: (1) density — keep patterns whose fraction of unique events
// exceeds a threshold; (2) maximality — keep only patterns not contained in
// another reported pattern; (3) ranking — order by length. The paper
// adapts these steps from Lo et al. [7] to cut 6070 mined patterns down to
// 94 reportable ones.
package postprocess

import (
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/seq"
)

// Density returns the fraction of distinct events in the pattern,
// |unique(P)| / |P|. The empty pattern has density 0.
func Density(events []seq.EventID) float64 {
	if len(events) == 0 {
		return 0
	}
	uniq := make(map[seq.EventID]bool, len(events))
	for _, e := range events {
		uniq[e] = true
	}
	return float64(len(uniq)) / float64(len(events))
}

// FilterDensity keeps patterns with Density > threshold (the case study
// uses 0.40: "the number of unique events is >40% of its length").
func FilterDensity(patterns []core.Pattern, threshold float64) []core.Pattern {
	out := make([]core.Pattern, 0, len(patterns))
	for _, p := range patterns {
		if Density(p.Events) > threshold {
			out = append(out, p)
		}
	}
	return out
}

// FilterMaximal keeps only maximal patterns: those not a proper
// subsequence of any other pattern in the list. Patterns are bucketed by
// nothing — maximality here is purely structural (the case study reports
// "only maximal patterns" regardless of support).
func FilterMaximal(patterns []core.Pattern) []core.Pattern {
	// Sort by descending length so containment only needs to look at
	// longer patterns, which are earlier.
	sorted := append([]core.Pattern(nil), patterns...)
	sort.SliceStable(sorted, func(a, b int) bool {
		return len(sorted[a].Events) > len(sorted[b].Events)
	})
	var out []core.Pattern
	for i, p := range sorted {
		maximal := true
		for j := 0; j < len(sorted); j++ {
			if j == i || len(sorted[j].Events) <= len(p.Events) {
				continue
			}
			if isSubsequence(p.Events, sorted[j].Events) {
				maximal = false
				break
			}
		}
		if maximal {
			out = append(out, p)
		}
	}
	return out
}

// RankByLength orders patterns by descending length (case-study step 3),
// breaking ties by descending support, then lexicographically for
// determinism.
func RankByLength(patterns []core.Pattern) []core.Pattern {
	out := append([]core.Pattern(nil), patterns...)
	sort.SliceStable(out, func(a, b int) bool {
		pa, pb := out[a], out[b]
		if len(pa.Events) != len(pb.Events) {
			return len(pa.Events) > len(pb.Events)
		}
		if pa.Support != pb.Support {
			return pa.Support > pb.Support
		}
		return lexLess(pa.Events, pb.Events)
	})
	return out
}

// CaseStudy applies the case-study pipeline to mined patterns: density >
// densityThreshold, maximality, rank by length. It is the one entry point
// of the pipeline, shared by gsgrow -density, the experiment runner and
// the traces example. The ranking breaks ties in event-ID order, so db
// must assign event IDs as the mined database did (the database itself,
// or a parse of the same input); every pattern event must name an event
// of db. It returns the kept patterns, ranked.
func CaseStudy(db *seq.DB, patterns []repro.Pattern, densityThreshold float64) ([]repro.Pattern, error) {
	byKey := make(map[string]repro.Pattern, len(patterns))
	ids := make([]core.Pattern, len(patterns))
	for i, p := range patterns {
		events, err := db.EventSeq(p.Events)
		if err != nil {
			return nil, err
		}
		ids[i] = core.Pattern{Events: events, Support: p.Support}
		byKey[strings.Join(p.Events, "\x00")] = p
	}
	kept := pipeline(ids, densityThreshold)
	out := make([]repro.Pattern, len(kept))
	for i, p := range kept {
		names := make([]string, len(p.Events))
		for j, e := range p.Events {
			names[j] = db.Dict.Name(e)
		}
		out[i] = byKey[strings.Join(names, "\x00")]
	}
	return out, nil
}

// pipeline applies the three steps in event-ID form.
func pipeline(patterns []core.Pattern, densityThreshold float64) []core.Pattern {
	return RankByLength(FilterMaximal(FilterDensity(patterns, densityThreshold)))
}

func isSubsequence(a, b []seq.EventID) bool {
	i := 0
	for j := 0; i < len(a) && j < len(b); j++ {
		if a[i] == b[j] {
			i++
		}
	}
	return i == len(a)
}

func lexLess(a, b []seq.EventID) bool {
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
