package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// tailPercentile is the percentile rule: the highest percentile of the
// ladder that has at least ten of n samples beyond it, or 0 when even the
// median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// pctl returns the nearest-rank p-th percentile of samples (sorted in
// place), or NaN for none.
func pctl(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	i := int(math.Ceil(p/100*float64(len(samples)))) - 1
	if i < 0 {
		i = 0
	}
	return samples[i]
}

func median(samples []float64) float64 { return pctl(samples, 50) }

// latencies collects durations in milliseconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, float64(d)/float64(time.Millisecond)) }

// at reports the p-th percentile, failing when there are no samples or,
// above the median, when the sample count does not support it under the
// percentile rule.
func (l latencies) at(p float64) (float64, error) {
	if len(l) == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if p > 50 && tailPercentile(len(l)) < p {
		return 0, fmt.Errorf("p%g needs %d samples, have %d", p, int(math.Ceil(10/((100-p)/100))), len(l))
	}
	return pctl(l, p), nil
}

// describe renders the median, the highest percentile the rule allows and
// the sample count.
func (l latencies) describe() string {
	tp := tailPercentile(len(l))
	if len(l) == 0 {
		return "n=0"
	}
	if tp <= 50 {
		return fmt.Sprintf("p50=%.3f ms n=%d", pctl(l, 50), len(l))
	}
	return fmt.Sprintf("p50=%.3f ms p%g=%.3f ms n=%d", pctl(l, 50), tp, pctl(l, tp), len(l))
}
