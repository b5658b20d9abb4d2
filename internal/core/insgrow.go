package core

import "repro/internal/seq"

// insGrow is Algorithm 2 (INSgrow) over compressed instances: given the
// leftmost support set I of a pattern P, it returns the leftmost support
// set of P ∘ e. For each sequence it walks I's instances in right-shift
// order, extending each with the earliest occurrence of e after
// max(last_position, l_{j-1}), and stops scanning the sequence at the first
// instance that cannot be extended (later instances have larger l_{j-1}, so
// they cannot be extended either).
//
// The output is again sorted in right-shift order: within a sequence,
// last_position strictly increases, and sequences are visited in ascending
// order. Time O(|I| log L) (Lemma 5), or O(|I|) with a FastNext index.
// The DFS miners call appendGrow directly with arena-recycled buffers;
// insGrow is the convenience wrapper for one-shot callers (supComp, top-k).
func insGrow(ix *seq.Index, I Set, e seq.EventID) Set {
	out := make(Set, 0, len(I))
	return appendGrow(out, ix, I, e)
}

// insGrowAtLeast is instance growth with an early-abort bound used by
// closure checking: as soon as the result can no longer reach size `need`
// (completed so far + instances not yet scanned < need), it stops. ok
// reports whether the grown set reached `need`; the returned buffer is
// valid either way and is handed back to the caller so the closure-check
// ping-pong never leaks an arena buffer (!ok means "support < need", and
// the buffer contents are then meaningless). dst is reused as the output
// buffer, reallocated only when its capacity cannot hold len(I) instances.
func insGrowAtLeast(ix *seq.Index, I Set, e seq.EventID, need int, dst Set) (out Set, ok bool) {
	out = dst[:0]
	if len(I) < need {
		return out, false
	}
	if cap(out) < len(I) {
		out = make(Set, 0, len(I))
	}
	start := 0
	for start < len(I) {
		si := I[start].Seq
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		lastPosition := int32(0)
		if col, fast := ix.NextColumn(int(si), e); fast {
			for k := start; k < end; k++ {
				lowest := I[k].Last
				if lastPosition > lowest {
					lowest = lastPosition
				}
				if int(lowest) >= len(col) {
					break
				}
				lj := col[lowest]
				if lj < 0 {
					break
				}
				lastPosition = lj
				out = append(out, Inst{Seq: si, First: I[k].First, Last: lj})
			}
		} else {
			for k := start; k < end; k++ {
				lowest := I[k].Last
				if lastPosition > lowest {
					lowest = lastPosition
				}
				lj := ix.Next(int(si), e, lowest)
				if lj < 0 {
					break
				}
				lastPosition = lj
				out = append(out, Inst{Seq: si, First: I[k].First, Last: lj})
			}
		}
		start = end
		// Even extending every remaining instance cannot reach `need`.
		if len(out)+(len(I)-start) < need {
			return out, false
		}
	}
	return out, len(out) >= need
}

// appendGrow performs one instance-growth step, appending extended
// instances to dst and returning it. With a FastNext index the per-sequence
// successor column is resolved once and the inner loop is a single bounds
// check plus one array load per instance.
func appendGrow(dst Set, ix *seq.Index, I Set, e seq.EventID) Set {
	start := 0
	for start < len(I) {
		si := I[start].Seq
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		lastPosition := int32(0) // paper's last_position, reset per sequence
		if col, fast := ix.NextColumn(int(si), e); fast {
			for k := start; k < end; k++ {
				lowest := I[k].Last // l_{j-1}
				if lastPosition > lowest {
					lowest = lastPosition
				}
				if int(lowest) >= len(col) {
					break // e absent from this sequence (col empty)
				}
				lj := col[lowest]
				if lj < 0 {
					break // no event e left for this and all later instances
				}
				lastPosition = lj
				dst = append(dst, Inst{Seq: si, First: I[k].First, Last: lj})
			}
		} else {
			for k := start; k < end; k++ {
				lowest := I[k].Last
				if lastPosition > lowest {
					lowest = lastPosition
				}
				lj := ix.Next(int(si), e, lowest)
				if lj < 0 {
					break
				}
				lastPosition = lj
				dst = append(dst, Inst{Seq: si, First: I[k].First, Last: lj})
			}
		}
		start = end
	}
	return dst
}

// singletonSet returns the leftmost support set of the size-1 pattern e:
// simply every occurrence of e, in right-shift order (line 1 of
// Algorithm 1 / line 3 of Algorithm 3). It serves one-pattern support
// queries, so it scans the sequences rather than building the index's
// per-event lists of every event (one allocation and Σ distinct events
// of work) to answer for one.
func singletonSet(ix *seq.Index, e seq.EventID) Set {
	out := make(Set, 0, ix.SingletonSupport(e))
	for i := 0; i < ix.DB().NumSequences(); i++ {
		for _, pos := range ix.Positions(i, e) {
			out = append(out, Inst{Seq: int32(i), First: pos, Last: pos})
		}
	}
	return out
}

// appendSingleton appends every occurrence of e to dst, in right-shift
// order, for the miners, which seed many size-1 patterns: it visits only
// the sequences that contain e (the index's per-event sequence lists).
func appendSingleton(dst Set, ix *seq.Index, e seq.EventID) Set {
	return appendSingletonIn(dst, ix, e, ix.SequencesOf(e))
}

// appendSingletonIn appends the occurrences of e restricted to the given
// ascending sequence indices. Restricting is sound whenever the pattern
// being grown can only have instances inside those sequences (used by the
// prepend chains of closure checking, where instances of e' ∘ P must live
// in sequences that contain P).
func appendSingletonIn(dst Set, ix *seq.Index, e seq.EventID, seqs []int32) Set {
	for _, i := range seqs {
		for _, pos := range ix.Positions(int(i), e) {
			dst = append(dst, Inst{Seq: i, First: pos, Last: pos})
		}
	}
	return dst
}

// insGrowFull is instance growth carrying full landmarks. It is used to
// reconstruct reportable support sets (ComputeSupportSet) and by the
// full-landmark miner ablation; the mining algorithms themselves run on the
// compressed representation.
func insGrowFull(ix *seq.Index, I FullSet, e seq.EventID) FullSet {
	out := make(FullSet, 0, len(I))
	start := 0
	for start < len(I) {
		si := I[start].Seq
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		lastPosition := int32(0)
		for k := start; k < end; k++ {
			land := I[k].Land
			lowest := land[len(land)-1]
			if lastPosition > lowest {
				lowest = lastPosition
			}
			lj := ix.Next(int(si), e, lowest)
			if lj < 0 {
				break
			}
			lastPosition = lj
			next := make([]int32, len(land)+1)
			copy(next, land)
			next[len(land)] = lj
			out = append(out, Instance{Seq: si, Land: next})
		}
		start = end
	}
	return out
}

// singletonFullSet returns the full-landmark leftmost support set of the
// size-1 pattern e.
func singletonFullSet(ix *seq.Index, e seq.EventID) FullSet {
	out := make(FullSet, 0, ix.SingletonSupport(e))
	for _, i := range ix.SequencesOf(e) {
		for _, pos := range ix.Positions(int(i), e) {
			out = append(out, Instance{Seq: i, Land: []int32{pos}})
		}
	}
	return out
}
