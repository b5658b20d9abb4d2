// Package datagen synthesizes the four workloads of the paper's evaluation:
// an IBM Quest-style generator (the D/C/N/S parameterization of Agrawal &
// Srikant used for Figures 2, 5 and 6), a Gazelle-like click-stream
// (Figure 3), a TCAS-like software-trace set (Figure 4), and JBoss-like
// transaction-component traces (the Section IV-B case study and Figure 7).
//
// The original artifacts are unavailable (proprietary IBM binary, KDD-Cup
// data, Siemens traces, industrial JBoss traces); each generator matches
// the published dataset statistics and the structural properties the
// paper's experiments rely on. See EXPERIMENTS.md ("Datasets") for the
// substitution rationale. All generators are deterministic given their Seed.
package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/seq"
)

// QuestParams mirrors the synthetic data generator's knobs as the paper
// names them: |SeqDB| = D·1000 sequences, C average events per sequence,
// N·1000 distinct events, and S the average length of the maximal
// potentially-frequent sequences planted in the data.
type QuestParams struct {
	D int // number of sequences, in thousands
	C int // average events per sequence
	N int // number of distinct events, in thousands
	S int // average planted-pattern length

	// NumPatterns is the size of the planted-pattern pool (Quest's NS,
	// 5000 in the original; scaled-down runs use fewer). 0 selects
	// D*400 clamped to [200, 5000].
	NumPatterns int
	// Corruption is the probability an event of a planted pattern is
	// dropped when pasted into a sequence (Quest's corruption level);
	// 0 selects 0.25.
	Corruption float64
	// Seed drives the deterministic generator.
	Seed int64
}

// Name renders the parameterization the way the paper labels datasets,
// e.g. "D5C20N10S20".
func (p QuestParams) Name() string {
	return fmt.Sprintf("D%dC%dN%dS%d", p.D, p.C, p.N, p.S)
}

func (p QuestParams) withDefaults() QuestParams {
	if p.NumPatterns == 0 {
		// Scale the pool with the database so pattern frequencies stay in
		// the regime of the paper's datasets (the original Quest default is
		// NS = 5000 for D >= 10).
		p.NumPatterns = p.D * 400
		if p.NumPatterns < 200 {
			p.NumPatterns = 200
		}
		if p.NumPatterns > 5000 {
			p.NumPatterns = 5000
		}
	}
	if p.Corruption == 0 {
		p.Corruption = 0.25
	}
	return p
}

// Validate reports whether the parameters are usable.
func (p QuestParams) Validate() error {
	if p.D < 1 || p.C < 1 || p.N < 1 || p.S < 1 {
		return fmt.Errorf("datagen: D, C, N, S must all be >= 1 (got D=%d C=%d N=%d S=%d)", p.D, p.C, p.N, p.S)
	}
	if p.Corruption < 0 || p.Corruption >= 1 {
		return fmt.Errorf("datagen: corruption must be in [0, 1), got %v", p.Corruption)
	}
	return nil
}

// Quest generates a sequence database in the style of the IBM Quest
// synthetic generator: a pool of potentially-frequent patterns is drawn
// from a Zipf-weighted event universe (with prefix reuse between
// consecutive pool entries, Quest's "correlation"), and each sequence is
// assembled by concatenating corrupted pattern instances until it reaches
// its Poisson-distributed target length. Because popular patterns are
// pasted into the same sequence repeatedly, patterns repeat both across
// and within sequences — the property repetitive-support mining exercises.
func Quest(p QuestParams) (*seq.DB, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.withDefaults()
	r := rand.New(rand.NewSource(p.Seed))
	numEvents := p.N * 1000
	numSeqs := p.D * 1000

	db := seq.NewDB()
	ids := make([]seq.EventID, numEvents)
	for i := 0; i < numEvents; i++ {
		ids[i] = db.Dict.Intern(fmt.Sprintf("e%d", i))
	}
	// Mild skew: popular events exist but the mass is spread widely, like
	// the average event frequency of the paper's datasets (total length /
	// distinct events ≈ 10 for D5C20N10).
	zipf := rand.NewZipf(r, 1.05, float64(numEvents)/10+1, uint64(numEvents-1))

	// Pattern pool. Lengths are Poisson(S) clipped to >= 1; each pattern
	// reuses a prefix of its predecessor with probability proportional to
	// Quest's correlation level (0.25).
	pool := make([][]seq.EventID, p.NumPatterns)
	weights := make([]float64, p.NumPatterns)
	var totalW float64
	for k := range pool {
		length := poisson(r, float64(p.S))
		if length < 1 {
			length = 1
		}
		pat := make([]seq.EventID, 0, length)
		if k > 0 && r.Float64() < 0.25 {
			prev := pool[k-1]
			take := r.Intn(len(prev)) + 1
			if take > length {
				take = length
			}
			pat = append(pat, prev[:take]...)
		}
		for len(pat) < length {
			pat = append(pat, ids[zipf.Uint64()])
		}
		pool[k] = pat
		weights[k] = r.ExpFloat64()
		totalW += weights[k]
	}
	// Cumulative weights for pattern selection.
	cum := make([]float64, len(weights))
	acc := 0.0
	for k, w := range weights {
		acc += w / totalW
		cum[k] = acc
	}

	events := make([]seq.EventID, 0, p.C*2)
	affinity := make([]int, 0, 3)
	for i := 0; i < numSeqs; i++ {
		target := poisson(r, float64(p.C))
		if target < 1 {
			target = 1
		}
		// Each sequence draws from a small per-sequence affinity set of
		// pool patterns (a customer's recurring behaviours), so long
		// sequences contain the SAME pattern several times — the
		// within-sequence repetition that repetitive support measures.
		affinity = affinity[:0]
		for n := 1 + r.Intn(3); len(affinity) < n; {
			affinity = append(affinity, pickWeighted(r, cum))
		}
		events = events[:0]
		for len(events) < target {
			pat := pool[affinity[r.Intn(len(affinity))]]
			for _, e := range pat {
				if r.Float64() < p.Corruption {
					continue // corrupted away
				}
				events = append(events, e)
				if len(events) == target {
					break
				}
			}
		}
		db.AddIDs("", events)
	}
	return db, nil
}

// poisson draws from a Poisson distribution with the given mean using
// Knuth's method for small means and a normal approximation for large ones.
func poisson(r *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		v := int(r.NormFloat64()*math.Sqrt(mean) + mean + 0.5)
		if v < 0 {
			return 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func pickWeighted(r *rand.Rand, cum []float64) int {
	x := r.Float64()
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
