package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/seq"
)

// compressReference is the compressed mode's selection as first written:
// an all-pairs cover test, then a greedy loop that recounts every
// candidate's gain in every round. Quadratic, and kept only as the oracle
// Finalize's support-window cover lists and lazy greedy must reproduce
// byte for byte.
func compressReference(opt Options, res *Result) *Result {
	delta := opt.CompressDelta
	if delta == 0 {
		delta = DefaultCompressDelta
	}
	pats := res.Patterns
	n := len(pats)
	out := &Result{Stats: res.Stats}

	covers := make([][]int32, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if float64(pats[i].Support) < (1-delta)*float64(pats[j].Support) {
				continue
			}
			if len(pats[i].Events) < len(pats[j].Events) {
				continue
			}
			if subseqOf(pats[j].Events, pats[i].Events) {
				covers[i] = append(covers[i], int32(j))
			}
		}
	}

	covered := make([]bool, n)
	chosen := make([]bool, n)
	numCovered, reps := 0, 0
	for numCovered < n {
		best, bestGain := -1, 0
		for i := 0; i < n; i++ {
			if chosen[i] {
				continue
			}
			gain := 0
			for _, j := range covers[i] {
				if !covered[j] {
					gain++
				}
			}
			if gain == 0 {
				continue
			}
			if gain > bestGain || (gain == bestGain && betterRep(pats, i, best)) {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break
		}
		chosen[best] = true
		for _, j := range covers[best] {
			if !covered[j] {
				covered[j] = true
				numCovered++
			}
		}
		p := pats[best]
		out.NumPatterns++
		if !opt.DiscardPatterns {
			out.Patterns = append(out.Patterns, p)
		}
		if opt.OnPattern != nil && !opt.OnPattern(p) {
			out.Stats.Truncated = true
			return out
		}
		reps++
		if opt.MaxPatterns > 0 && reps >= opt.MaxPatterns {
			if numCovered < n {
				out.Stats.Truncated = true
			}
			return out
		}
	}
	return out
}

func questCompressIndex(t *testing.T) *seq.Index {
	t.Helper()
	db, err := datagen.Quest(datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
}

// sameCompressed reports the first difference between two compressed
// results in representatives (events, supports, order), NumPatterns or
// Truncated, or "" when there is none.
func sameCompressed(got, want *Result) string {
	if got.NumPatterns != want.NumPatterns || got.Stats.Truncated != want.Stats.Truncated {
		return fmt.Sprintf("NumPatterns/Truncated = %d/%v, want %d/%v",
			got.NumPatterns, got.Stats.Truncated, want.NumPatterns, want.Stats.Truncated)
	}
	if len(got.Patterns) != len(want.Patterns) {
		return fmt.Sprintf("%d representatives, want %d", len(got.Patterns), len(want.Patterns))
	}
	for k := range got.Patterns {
		if !reflect.DeepEqual(got.Patterns[k], want.Patterns[k]) {
			return fmt.Sprintf("representative %d = %v (sup %d), want %v (sup %d)", k,
				got.Patterns[k].Events, got.Patterns[k].Support, want.Patterns[k].Events, want.Patterns[k].Support)
		}
	}
	return ""
}

// TestCompressedMatchesReference: through Mine and MineParallel, the
// compressed mode returns exactly compressReference's representatives of
// the closed set on Quest D1C20N1S20 over min_sup × δ × workers ×
// MaxPatterns.
func TestCompressedMatchesReference(t *testing.T) {
	ix := questCompressIndex(t)
	for _, minSup := range []int{10, 8} {
		closed, err := Mine(ix, Options{MinSupport: minSup, Closed: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, delta := range []float64{0.05, 0.1, 0.3} {
			for _, maxPatterns := range []int{0, 1, 17, 500} {
				opt := Options{MinSupport: minSup, Semantics: Compressed, CompressDelta: delta, MaxPatterns: maxPatterns}
				want := compressReference(opt, closed)
				for _, workers := range []int{1, 2, 4, 8} {
					got, err := MineParallel(ix, opt, workers)
					if err != nil {
						t.Fatal(err)
					}
					if diff := sameCompressed(got, want); diff != "" {
						t.Errorf("minsup=%d δ=%g maxPatterns=%d workers=%d: %s", minSup, delta, maxPatterns, workers, diff)
					}
				}
			}
		}
	}
}

// TestCompressedEdgeCasesMatchReference: the OnPattern early stop, an
// empty closed set, and a MaxPatterns cap reached exactly at full
// coverage (not truncated) agree with the reference.
func TestCompressedEdgeCasesMatchReference(t *testing.T) {
	ix := questCompressIndex(t)
	closed, err := Mine(ix, Options{MinSupport: 10, Closed: true})
	if err != nil {
		t.Fatal(err)
	}
	base := Options{MinSupport: 10, Semantics: Compressed}
	full := compressReference(base, closed)
	if full.NumPatterns == 0 || full.Stats.Truncated {
		t.Fatalf("reference cover: %d representatives, truncated=%v", full.NumPatterns, full.Stats.Truncated)
	}

	for _, stopAfter := range []int{1, 5, full.NumPatterns} {
		for _, workers := range []int{1, 4} {
			for _, discard := range []bool{false, true} {
				seen := 0
				opt := base
				opt.DiscardPatterns = discard
				opt.OnPattern = func(Pattern) bool { seen++; return seen < stopAfter }
				got, err := MineParallel(ix, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				gotSeen := seen
				seen = 0
				want := compressReference(opt, closed)
				if diff := sameCompressed(got, want); diff != "" || gotSeen != seen {
					t.Errorf("stop after %d, workers=%d, discard=%v: %s (callbacks %d, want %d)",
						stopAfter, workers, discard, diff, gotSeen, seen)
				}
			}
		}
	}

	exact := base
	exact.MaxPatterns = full.NumPatterns
	for _, workers := range []int{1, 4} {
		got, err := MineParallel(ix, exact, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.Stats.Truncated {
			t.Errorf("workers=%d: cap %d reached at full coverage marked truncated", workers, exact.MaxPatterns)
		}
		if diff := sameCompressed(got, full); diff != "" {
			t.Errorf("workers=%d: cap at full coverage: %s", workers, diff)
		}
	}

	empty := Options{MinSupport: 1 << 20, Semantics: Compressed}
	for _, workers := range []int{1, 4} {
		got, err := MineParallel(ix, empty, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumPatterns != 0 || len(got.Patterns) != 0 || got.Stats.Truncated {
			t.Errorf("workers=%d: empty closed set gave %d representatives, truncated=%v", workers, got.NumPatterns, got.Stats.Truncated)
		}
	}
	if diff := sameCompressed(Compressed.Finalize(ix, base, &Result{}), compressReference(base, &Result{})); diff != "" {
		t.Errorf("Finalize on an empty result: %s", diff)
	}
}
