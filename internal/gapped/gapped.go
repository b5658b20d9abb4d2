// Package gapped implements the paper's second proposed future work
// (Section V): mining repetitive gapped subsequences under a gap
// constraint, "useful for mining subsequences from long sequences of DNA,
// protein, and text data". An instance (i, <l1..lm>) is gap-valid when
// every consecutive gap l_{j+1}-l_j-1 lies within [MinGap, MaxGap]; the
// gap-constrained repetitive support of a pattern is the maximum number of
// pairwise non-overlapping gap-valid instances (overlap as in the paper's
// Definition 2.3).
//
// The constraint is one more occurrence semantics of the mining kernel
// (Semantics, a core.Semantics), so gapped mining runs on the same DFS,
// candidate lists, pattern budget, cancellation and work-stealing
// scheduler as every other mode. Two properties of the unconstrained
// problem break under gap constraints, and the strategy handles both
// exactly rather than approximately:
//
//   - Greedy leftmost instance growth (INSgrow) is no longer optimal: in
//     S = AAB with MaxGap = 0, the leftmost A cannot reach the B, but the
//     second A can. The driver set therefore holds every gap-valid end
//     position, and support is maximum node-disjoint paths in the
//     gap-constrained occurrence DAG — a unit-capacity max flow per
//     sequence, polynomial like the paper's greedy but without relying on
//     the exchange argument that gap constraints invalidate.
//
//   - The full Apriori property fails: deleting a middle event of a
//     pattern merges two gaps and can invalidate instances, so a
//     sub-pattern can have smaller support than its super-pattern. Support
//     IS still anti-monotone along prefix extension (dropping the last
//     event of a gap-valid instance keeps it gap-valid), which is exactly
//     what depth-first pattern growth needs: every frequent pattern is
//     reachable through frequent prefixes.
package gapped

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/seq"
)

// Semantics is gap-constrained repetitive support as a kernel strategy.
// MinGap and MaxGap bound the number of events strictly between
// consecutive pattern events (0 <= MinGap <= MaxGap; both 0 mines
// contiguous substrings).
//
// Its driver set holds, per sequence in ascending order, the positions
// where some gap-valid instance of the pattern ends (Inst.Last; First is
// unused). Non-overlapping instances end at distinct positions, so the
// set's size bounds the support from above, as the kernel's branch prune
// requires.
type Semantics struct {
	MinGap, MaxGap int
}

// validate reports whether the gap range is usable.
func (s Semantics) validate() error {
	if s.MinGap < 0 || s.MaxGap < s.MinGap {
		return fmt.Errorf("gapped: need 0 <= MinGap <= MaxGap, got [%d, %d]", s.MinGap, s.MaxGap)
	}
	return nil
}

// Name is the wire/flag name of the semantics.
func (Semantics) Name() string { return "gapped" }

// Singleton appends every occurrence of e, visiting only the sequences
// that contain it: a single-event instance has no gap to respect.
func (Semantics) Singleton(dst core.Set, ix *seq.Index, e seq.EventID) core.Set {
	for _, i := range ix.SequencesOf(e) {
		for _, p := range ix.Positions(int(i), e) {
			dst = append(dst, core.Inst{Seq: i, Last: p})
		}
	}
	return dst
}

// Grow appends the gap-valid end positions of pattern∘e given those of
// pattern: q is one iff S[q] = e and some end p of I in the same sequence
// satisfies MinGap <= q-p-1 <= MaxGap. Both lists ascend, so a two-pointer
// sweep over the window of ends reaching q costs O(|ends| + |positions of
// e|) per sequence.
func (s Semantics) Grow(dst core.Set, ix *seq.Index, I core.Set, e seq.EventID) core.Set {
	for start := 0; start < len(I); {
		si := I[start].Seq
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		ends := I[start:end]
		start = end
		lo, hi := 0, 0
		for _, q := range ix.Positions(int(si), e) {
			// The ends reaching q are those in [q-1-MaxGap, q-1-MinGap].
			loBound, hiBound := int(q)-1-s.MaxGap, int(q)-1-s.MinGap
			if hiBound < int(ends[0].Last) {
				continue
			}
			for lo < len(ends) && int(ends[lo].Last) < loBound {
				lo++
			}
			if lo == len(ends) {
				break // every end is too far behind q and all later positions
			}
			if hi < lo {
				hi = lo
			}
			for hi < len(ends) && int(ends[hi].Last) <= hiBound {
				hi++
			}
			if lo < hi {
				dst = append(dst, core.Inst{Seq: si, Last: q})
			}
		}
	}
	return dst
}

// Support counts the pattern's gap-constrained support: per sequence of I,
// the maximum number of node-disjoint paths through the layered gap-valid
// occurrence DAG (layer j = the gap-valid ends of pattern[:j+1], rebuilt
// with Singleton and Grow for that sequence only); across sequences,
// supports add up. A sequence holding a single end contributes exactly 1
// without a flow: some gap-valid instance ends there, and no two can.
func (s Semantics) Support(ix *seq.Index, pattern []seq.EventID, I core.Set) int {
	if len(pattern) == 1 {
		// No gaps to respect: every occurrence is an instance and all
		// single-event instances are pairwise non-overlapping.
		return len(I)
	}
	var sc flowScratch
	total := 0
	for start := 0; start < len(I); {
		si := I[start].Seq
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		if end-start == 1 {
			total++
		} else {
			total += s.seqFlow(ix, si, pattern, &sc)
		}
		start = end
	}
	return total
}

// Instances is not implemented: a maximum set of gap-valid instances is a
// decomposition of the max flow, which no caller reports (the public API
// rejects CollectInstances under gapped semantics). It returns nil.
func (Semantics) Instances(*seq.Index, []seq.EventID) core.FullSet { return nil }

// SupportsClosed is false: the closure machinery reasons about leftmost
// sets, which gap-constrained growth does not produce.
func (Semantics) SupportsClosed() bool { return false }

// SearchOptions runs the caller's options unchanged.
func (Semantics) SearchOptions(opt core.Options) core.Options { return opt }

// Finalize returns the merged result unchanged.
func (Semantics) Finalize(_ *seq.Index, _ core.Options, res *core.Result) *core.Result {
	return res
}

// flowScratch holds the buffers of one Support call, reused across its
// sequences.
type flowScratch struct {
	layers core.Set // every layer of one sequence, back to back
	offset []int    // layer j is layers[offset[j]:offset[j+1]]
	g      flow
}

// seqFlow computes the support of pattern within sequence si.
func (s Semantics) seqFlow(ix *seq.Index, si int32, pattern []seq.EventID, sc *flowScratch) int {
	sc.layers = sc.layers[:0]
	for _, p := range ix.Positions(int(si), pattern[0]) {
		sc.layers = append(sc.layers, core.Inst{Seq: si, Last: p})
	}
	sc.offset = append(sc.offset[:0], 0, len(sc.layers))
	for j := 1; j < len(pattern); j++ {
		prev := sc.layers[sc.offset[j-1]:sc.offset[j]]
		sc.layers = s.Grow(sc.layers, ix, prev, pattern[j])
		sc.offset = append(sc.offset, len(sc.layers))
	}
	depth := len(pattern)
	g := &sc.g
	g.reset(2 + 2*len(sc.layers))
	// Node 0 is the source, node 1 the sink; the k-th end of the whole
	// layer buffer splits into in-node 2+2k and out-node 3+2k so that each
	// end carries at most one path.
	for k := sc.offset[0]; k < sc.offset[1]; k++ {
		g.edge(0, 2+2*k)
	}
	for j := 0; j < depth; j++ {
		for k := sc.offset[j]; k < sc.offset[j+1]; k++ {
			g.edge(2+2*k, 3+2*k)
			if j == depth-1 {
				g.edge(3+2*k, 1)
				continue
			}
			p := int(sc.layers[k].Last)
			for k2 := sc.offset[j+1]; k2 < sc.offset[j+2]; k2++ {
				gap := int(sc.layers[k2].Last) - p - 1
				if gap < s.MinGap {
					continue
				}
				if gap > s.MaxGap {
					break // layers are ascending; later ends only larger
				}
				g.edge(3+2*k, 2+2*k2)
			}
		}
	}
	return g.maxflow(0, 1)
}

// Options configures Mine.
type Options struct {
	// MinSupport is the support threshold (>= 1).
	MinSupport int
	// MinGap and MaxGap are Semantics.MinGap and Semantics.MaxGap.
	MinGap, MaxGap int
	// MaxPatternLength bounds pattern length; 0 = unbounded.
	MaxPatternLength int
	// MaxPatterns stops the run early; 0 = unbounded.
	MaxPatterns int
}

// Mine returns every pattern whose gap-constrained repetitive support
// reaches opt.MinSupport, in DFS preorder over ascending event IDs: one
// sequential kernel run under Semantics over a fresh index of db.
func Mine(db *seq.DB, opt Options) (*core.Result, error) {
	sem := Semantics{MinGap: opt.MinGap, MaxGap: opt.MaxGap}
	if err := sem.validate(); err != nil {
		return nil, err
	}
	return core.Mine(seq.NewIndex(db), core.Options{
		MinSupport:       opt.MinSupport,
		MaxPatternLength: opt.MaxPatternLength,
		MaxPatterns:      opt.MaxPatterns,
		Semantics:        sem,
	})
}

// Support computes the gap-constrained repetitive support of one pattern
// without mining: the pattern's driver set grown event by event, then
// counted.
func Support(ix *seq.Index, pattern []seq.EventID, minGap, maxGap int) (int, error) {
	sem := Semantics{MinGap: minGap, MaxGap: maxGap}
	if err := sem.validate(); err != nil {
		return 0, err
	}
	if len(pattern) == 0 {
		return 0, nil
	}
	I := sem.Singleton(nil, ix, pattern[0])
	for _, e := range pattern[1:] {
		I = sem.Grow(nil, ix, I, e)
	}
	return sem.Support(ix, pattern, I), nil
}

// flow is a minimal unit-capacity max-flow (BFS augmenting paths), local to
// this package so gapped does not depend on the test oracle in verify. Its
// buffers are reused across reset calls.
type flow struct {
	head, next, to []int
	cap            []int8
	prev, queue    []int
}

// reset empties the graph and sizes it to n nodes.
func (g *flow) reset(n int) {
	g.head = g.head[:0]
	for i := 0; i < n; i++ {
		g.head = append(g.head, -1)
	}
	g.next, g.to, g.cap = g.next[:0], g.to[:0], g.cap[:0]
}

func (g *flow) edge(u, v int) {
	g.to = append(g.to, v)
	g.cap = append(g.cap, 1)
	g.next = append(g.next, g.head[u])
	g.head[u] = len(g.to) - 1
	g.to = append(g.to, u)
	g.cap = append(g.cap, 0)
	g.next = append(g.next, g.head[v])
	g.head[v] = len(g.to) - 1
}

func (g *flow) maxflow(s, t int) int {
	total := 0
	for {
		g.prev = g.prev[:0]
		for range g.head {
			g.prev = append(g.prev, -1)
		}
		prev := g.prev
		prev[s] = -2
		queue := append(g.queue[:0], s)
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for e := g.head[u]; e != -1; e = g.next[e] {
				v := g.to[e]
				if g.cap[e] > 0 && prev[v] == -1 {
					prev[v] = e
					if v == t {
						found = true
						break bfs
					}
					queue = append(queue, v)
				}
			}
		}
		g.queue = queue
		if !found {
			return total
		}
		for v := t; v != s; {
			e := prev[v]
			g.cap[e]--
			g.cap[e^1]++
			v = g.to[e^1]
		}
		total++
	}
}
