// Package features implements the paper's proposed future work (Section V):
// using frequent repetitive gapped subsequences as classification features,
// with each pattern's per-sequence repetitive support as the feature value.
// "The patterns which repeat frequently in some sequences while
// infrequently in others could be discriminative features."
package features

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/seq"
)

// Matrix is a pattern × sequence feature matrix: Values[p][s] is the
// repetitive support of pattern p within sequence s.
type Matrix struct {
	Patterns [][]seq.EventID
	// Values[p][s] for pattern index p, sequence index s.
	Values [][]float64
}

// Extract mines (closed) frequent patterns from db and returns their
// per-sequence supports as a feature matrix. The per-sequence support of P
// in Si is the maximum number of non-overlapping instances of P inside Si,
// which is exactly the size of the leftmost support set's slice in Si —
// so each row is counted from the instances the miner emits with the
// pattern.
func Extract(db *seq.DB, minSup int, closed bool) (*Matrix, error) {
	ix := seq.NewIndex(db)
	res, err := core.MineParallel(ix, core.Options{MinSupport: minSup, Closed: closed, CollectInstances: true}, 1)
	if err != nil {
		return nil, err
	}
	m := &Matrix{}
	for _, p := range res.Patterns {
		m.Patterns = append(m.Patterns, p.Events)
		row := make([]float64, db.NumSequences())
		for _, inst := range p.Instances {
			row[inst.Seq]++
		}
		m.Values = append(m.Values, row)
	}
	return m, nil
}

// NumPatterns returns the number of feature rows.
func (m *Matrix) NumPatterns() int { return len(m.Patterns) }

// Row returns the feature values of pattern p across all sequences.
func (m *Matrix) Row(p int) []float64 { return m.Values[p] }

// Discriminative scores each pattern by how well its per-sequence support
// separates two groups of sequence indices, using the absolute difference
// of group means normalized by the pooled standard deviation (a two-sample
// t-like statistic; infinite-variance degenerate cases score 0 unless the
// means differ with zero variance, which scores +Inf capped to a large
// value). It returns pattern indices sorted by descending score.
func (m *Matrix) Discriminative(groupA, groupB []int) []ScoredPattern {
	out := make([]ScoredPattern, 0, len(m.Patterns))
	for p := range m.Patterns {
		meanA, varA := meanVar(m.Values[p], groupA)
		meanB, varB := meanVar(m.Values[p], groupB)
		nA, nB := float64(len(groupA)), float64(len(groupB))
		if nA == 0 || nB == 0 {
			continue
		}
		pooled := math.Sqrt(varA/nA + varB/nB)
		var score float64
		diff := math.Abs(meanA - meanB)
		switch {
		case pooled > 0:
			score = diff / pooled
		case diff > 0:
			score = math.MaxFloat32 // perfectly separating, zero variance
		default:
			score = 0
		}
		out = append(out, ScoredPattern{Index: p, Score: score, MeanA: meanA, MeanB: meanB})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// ScoredPattern is a pattern index with its discriminativeness score and
// the two group means.
type ScoredPattern struct {
	Index        int
	Score        float64
	MeanA, MeanB float64
}

// Classify assigns a sequence (given its feature column) to group A or B by
// nearest group-mean over the top-k discriminative patterns. It is a
// deliberately simple centroid classifier demonstrating the feature
// pipeline end to end.
func (m *Matrix) Classify(scored []ScoredPattern, k int, column []float64) (groupA bool, err error) {
	if len(column) == 0 {
		return false, fmt.Errorf("features: empty feature column")
	}
	if k > len(scored) {
		k = len(scored)
	}
	var dA, dB float64
	for _, sp := range scored[:k] {
		if sp.Index >= len(column) {
			return false, fmt.Errorf("features: column has %d entries, pattern index %d", len(column), sp.Index)
		}
		v := column[sp.Index]
		dA += (v - sp.MeanA) * (v - sp.MeanA)
		dB += (v - sp.MeanB) * (v - sp.MeanB)
	}
	return dA <= dB, nil
}

// Column extracts the feature vector of one sequence across all patterns —
// the representation handed to a downstream classifier.
func (m *Matrix) Column(s int) []float64 {
	col := make([]float64, len(m.Patterns))
	for p := range m.Patterns {
		col[p] = m.Values[p][s]
	}
	return col
}

func meanVar(row []float64, idx []int) (mean, variance float64) {
	if len(idx) == 0 {
		return 0, 0
	}
	for _, i := range idx {
		mean += row[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := row[i] - mean
		variance += d * d
	}
	variance /= float64(len(idx))
	return mean, variance
}
