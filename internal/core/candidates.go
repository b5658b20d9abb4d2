package core

import "repro/internal/seq"

// candidates returns, in ascending event-ID order, every event e that can
// extend at least one instance of I: e occurs, in some sequence touched by
// I, strictly after the earliest last-landmark of I's instances in that
// sequence. (Within a sequence, I is sorted by last landmark, so the first
// instance of the run has the earliest one; any event occurring after it
// can extend at least that instance.) When the miner bounds its candidates
// (candidateFloor), events whose per-sequence support bound is below
// MinSupport are left out; see candScan.
//
// This realizes the remark under Theorem 6: "we can maintain a list of
// possible events which are much fewer than those in E". The test is one
// comparison against the index's dense last-position array, so the whole
// scan costs O(Σ distinct events per touched sequence) with no pointer
// chasing. The returned slice comes from the miner's candidate-buffer pool
// (the DFS holds it across recursive calls, then recycles it with
// putCands).
func (m *miner) candidates(I Set) []seq.EventID {
	out := m.listCandidates(I)
	m.scan.reset(out)
	return out
}

// candidateBounds is candidates plus, parallel to the list, each event's
// support bound Σᵢ min(|Iᵢ|, countᵢ(e)) — an upper bound on sup(P∘e) for
// the leftmost set grown by appendGrow. The bound slice is scratch, valid
// until the next call.
func (m *miner) candidateBounds(I Set) ([]seq.EventID, []int32) {
	out := m.listCandidates(I)
	bounds := m.scan.bounds(out)
	m.scan.reset(out)
	return out, bounds
}

// listCandidates scans I's sequence runs into a pooled list, leaving the
// survivors' bounds in the scratch for the caller to read and reset.
func (m *miner) listCandidates(I Set) []seq.EventID {
	out := m.getCands()
	start := 0
	for start < len(I) {
		end := start + 1
		for end < len(I) && I[end].Seq == I[start].Seq {
			end++
		}
		out = m.scan.addRun(out, m.ix, int(I[start].Seq), I[start].Last, int32(end-start))
		start = end
	}
	return m.scan.finish(out, m.candFloor)
}

// candScan is the scratch of candidate generation, shared by the miner
// and the full-landmark ablation miner so both prune the same lists.
//
// The per-sequence support bound: the instances of P∘e in sequence Sᵢ
// extend pairwise distinct instances of P and end at pairwise distinct
// positions of e (no two non-overlapping instances share a landmark at
// the same pattern index), so sup_i(P∘e) <= min(sup_i(P), countᵢ(e)).
// Repetitive support decomposes per sequence, and a leftmost set holds
// sup_i(P) instances in every sequence, so sup(P∘e) <= Σᵢ min(|Iᵢ|,
// countᵢ(e)) over the sequences I touches — the Apriori property split
// per sequence. An event whose bound is below MinSupport cannot give a
// frequent child, so its instance growth is skipped.
type candScan struct {
	// bound[e] accumulates e's support bound over the runs added so far;
	// a nonzero entry doubles as "e is already listed". Zero between
	// calls.
	bound []int32
	// kept backs the slice bounds returns; only top-k asks for it.
	kept []int32
}

func newCandScan(numEvents int) candScan {
	return candScan{bound: make([]int32, numEvents)}
}

// addRun lists the events of sequence si occurring after firstLast (the
// earliest last landmark among the run instances of I in si) that are
// not listed yet, and adds min(run, countᵢ(e)) to each one's bound.
// EventsLast and EventsCount share one slot index.
func (c *candScan) addRun(out []seq.EventID, ix *seq.Index, si int, firstLast, run int32) []seq.EventID {
	events, last := ix.EventsLast(si)
	_, count := ix.EventsCount(si)
	for k, e := range events {
		if last[k] <= firstLast {
			continue
		}
		if c.bound[e] == 0 {
			out = append(out, e)
		}
		c.bound[e] += min(run, count[k])
	}
	return out
}

// finish drops every listed event whose bound is below floor (floor <= 1
// keeps them all), zeroing its entry, and sorts the survivors ascending.
// The survivors' entries stay set until reset.
func (c *candScan) finish(out []seq.EventID, floor int32) []seq.EventID {
	kept := out[:0]
	for _, e := range out {
		if c.bound[e] >= floor {
			kept = append(kept, e)
		} else {
			c.bound[e] = 0
		}
	}
	sortEventIDs(kept)
	return kept
}

// bounds returns the bounds of the finished list, parallel to it, in a
// buffer reused by the next call. A list never exceeds the alphabet, so
// the buffer is allocated once, at that size.
func (c *candScan) bounds(kept []seq.EventID) []int32 {
	if c.kept == nil {
		c.kept = make([]int32, 0, len(c.bound))
	}
	b := c.kept[:0]
	for _, e := range kept {
		b = append(b, c.bound[e])
	}
	c.kept = b
	return b
}

// reset zeroes the entries of the finished list.
func (c *candScan) reset(kept []seq.EventID) {
	for _, e := range kept {
		c.bound[e] = 0
	}
}

// sequenceRunsOf returns the distinct 0-based sequence indices touched by
// I (ascending) alongside the number of instances in each — the
// per-sequence repetitive supports sup_i(P), since a leftmost support set
// realizes the per-sequence maximum in every sequence. Both slices live in
// miner scratch buffers overwritten by the next call.
func (m *miner) sequenceRunsOf(I Set) (seqs, perSeq []int32) {
	seqs, perSeq = m.seqsBuf[:0], m.runsBuf[:0]
	for k := 0; k < len(I); k++ {
		if k == 0 || I[k].Seq != I[k-1].Seq {
			seqs = append(seqs, I[k].Seq)
			perSeq = append(perSeq, 1)
		} else {
			perSeq[len(perSeq)-1]++
		}
	}
	m.seqsBuf, m.runsBuf = seqs, perSeq
	return seqs, perSeq
}

// eligibleEvents returns, ascending, every event that can possibly appear
// in an equal-support insertion or prepend extension of the current
// pattern: support decomposes per sequence, so sup(P') = sup(P) requires
// sup_i(P') = sup_i(P) = perSeq[r] in every touched sequence, and the
// perSeq[r] non-overlapping instances of P' in that sequence pin e' at
// pairwise distinct positions — hence e' must occur at least perSeq[r]
// times in seqs[r], for every r. Any eligible event occurs in the first
// touched sequence, so only its distinct-event list is scanned. The result
// lives in the miner's eligibility scratch buffer (valid for the duration
// of one closure check).
func (m *miner) eligibleEvents(seqs, perSeq []int32) []seq.EventID {
	out := m.eligBuf[:0]
	if len(seqs) == 0 {
		m.eligBuf = out
		return out
	}
	events, count0 := m.ix.EventsCount(int(seqs[0]))
	for k, e := range events {
		if count0[k] < perSeq[0] {
			continue
		}
		ok := true
		for r := 1; r < len(seqs); r++ {
			if m.ix.Count(int(seqs[r]), e) < int(perSeq[r]) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, e)
		}
	}
	m.eligBuf = out
	return out
}

// insertionCandidates returns candidate events e' for the insertion
// extension P' = e1..eg e' e{g+1}..em (1 <= g <= m-1): the eligible events
// (per-sequence occurrence filter, see eligibleEvents) that can also
// extend at least one instance of the prefix support set chain[g-1] —
// exactly the candidate list the DFS computed when it grew from that
// prefix, cached on candStack. Both inputs are sorted ascending, so the
// intersection is one merge into the miner's gap-candidate scratch buffer
// (consumed before the next gap's call overwrites it).
//
// The cached lists carry the per-sequence support bound, which drops
// events whose bound is below MinSupport; reusing them is still sound.
// An equal-support insertion P' = e1..eg e' e{g+1}..em has sup(P') =
// sup(P) >= MinSupport, so its prefix e1..eg e' is frequent (Apriori) and
// the bound of e' at chain[g-1], an upper bound on that prefix's support, is
// at least MinSupport: e' is on the cached list. The same argument keeps
// every event CloGSgrow needs elsewhere: an equal-support append
// extension P∘e (appendEqual) has bound >= sup(P∘e) = sup(P) >=
// MinSupport, and the landmark-border prune (Theorem 5) only ever fires
// on an equal-support insertion found here.
func (m *miner) insertionCandidates(g int, elig []seq.EventID) []seq.EventID {
	cands := m.candStack[g-1]
	out := m.gapCandBuf[:0]
	i, j := 0, 0
	for i < len(elig) && j < len(cands) {
		switch {
		case elig[i] == cands[j]:
			out = append(out, elig[i])
			i++
			j++
		case elig[i] < cands[j]:
			i++
		default:
			j++
		}
	}
	m.gapCandBuf = out
	return out
}

// allFrequentEvents is the ablation-A1 alternative to candidates: ignore I
// and try every globally frequent event, as in the worst-case factor E of
// Theorem 6.
func (m *miner) allFrequentEvents() []seq.EventID { return m.freqEvents }

// sortEventIDs sorts a small slice of event IDs ascending. Insertion sort:
// candidate lists arrive nearly sorted (per-sequence event lists are
// sorted, and merging a handful of sequences keeps long ascending runs).
func sortEventIDs(a []seq.EventID) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
