package harness

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/postprocess"
	"repro/internal/seq"
)

// CaseStudyReport is what Section IV-B reports of a mined pattern set:
// the patterns the density/maximality/ranking pipeline keeps (the first
// is the longest behaviour) and the most frequent two-event behaviour
// among all mined patterns (the paper finds Lock -> Unlock).
type CaseStudyReport struct {
	Dataset seq.Stats
	Mined   *repro.Result
	Density float64
	Kept    []repro.Pattern
	Pair    repro.Pattern
}

// CaseStudy generates ds and mines it with opt through the runner's own
// path, then applies the case-study pipeline at the density threshold.
func CaseStudy(ds Dataset, opt repro.Options, density float64) (*CaseStudyReport, error) {
	if err := ds.check(); err != nil {
		return nil, err
	}
	d, err := load(ds)
	if err != nil {
		return nil, err
	}
	res, err := d.snap.Mine(opt)
	if err != nil {
		return nil, err
	}
	return caseStudy(d.db, res, density)
}

func caseStudy(db *seq.DB, res *repro.Result, density float64) (*CaseStudyReport, error) {
	kept, err := postprocess.CaseStudy(db, res.Patterns, density)
	if err != nil {
		return nil, err
	}
	r := &CaseStudyReport{Dataset: seq.ComputeStats(db), Mined: res, Density: density, Kept: kept}
	for _, p := range res.Patterns {
		if len(p.Events) == 2 && (p.Support > r.Pair.Support ||
			p.Support == r.Pair.Support && strings.Join(p.Events, " ") < strings.Join(r.Pair.Events, " ")) {
			r.Pair = p
		}
	}
	return r, nil
}

// Summary is the report as one CSV-safe line (no commas): the dataset,
// the pipeline's yield, the longest kept pattern and the top pair.
func (r *CaseStudyReport) Summary() string {
	var longest repro.Pattern
	if len(r.Kept) > 0 {
		longest = r.Kept[0]
	}
	return fmt.Sprintf("traces: %s; density > %.2f then maximality and ranking keep %d of %d patterns; "+
		"longest: %d events (support %d); most frequent 2-event behaviour: %s (support %d)",
		r.Dataset, r.Density, len(r.Kept), r.Mined.NumPatterns, len(longest.Events), longest.Support,
		strings.Join(r.Pair.Events, " -> "), r.Pair.Support)
}
