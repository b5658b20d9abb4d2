package seq

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// seqsOfMatchesScan asserts that ix's per-event sequence lists equal a
// brute-force scan of db: for every event of the dictionary (and one past
// it), the ascending indices of the sequences containing it.
func seqsOfMatchesScan(t *testing.T, db *DB, ix *Index) {
	t.Helper()
	for e := EventID(0); e <= EventID(db.Dict.Size()); e++ {
		var want []int32
		for i, s := range db.Seqs {
			if slices.Contains(s, e) {
				want = append(want, int32(i))
			}
		}
		if got := ix.SequencesOf(e); !slices.Equal(got, want) {
			t.Fatalf("SequencesOf(%d) = %v, want %v", e, got, want)
		}
	}
	if got := ix.SequencesOf(NoEvent); got != nil {
		t.Fatalf("SequencesOf(NoEvent) = %v, want nil", got)
	}
}

// TestSequencesOfMatchesScan checks the per-event sequence lists after a
// fresh build and along a lineage of extensions: upserts that add new
// events to old sequences, appended sequences, and a grown dictionary.
// Extend must not build the lists itself (it stays O(delta)); each index
// builds its own on first use.
func TestSequencesOfMatchesScan(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(r, 1+r.Intn(8), 15)
		ix := NewIndexWith(db, IndexOptions{FastNext: trial%2 == 0})
		if ix.seqsStart != nil {
			t.Fatal("NewIndexWith built the per-event lists eagerly")
		}
		seqsOfMatchesScan(t, db, ix)
		for step := 0; step < 3; step++ {
			grown := db.Extend()
			var changed []int
			for i := range db.Seqs {
				if r.Intn(3) != 0 {
					continue
				}
				// Copy-on-write upsert: old events plus a new one.
				old := grown.Seqs[i]
				repl := make(Sequence, len(old), len(old)+2)
				copy(repl, old)
				repl = append(repl, grown.Dict.Intern("b"), grown.Dict.Intern(string(rune('p'+trial%5+step))))
				if changed == nil {
					grown.Seqs = append([]Sequence(nil), grown.Seqs...)
				}
				grown.Seqs[i] = repl
				changed = append(changed, i)
			}
			for n := r.Intn(3); n > 0; n-- {
				grown.Add("", []string{"a", string(rune('u' + step)), "c"})
			}
			nix := ix.Extend(grown, changed)
			if nix.seqsStart != nil {
				t.Fatal("Extend built the per-event lists")
			}
			seqsOfMatchesScan(t, grown, nix)
			// The base index keeps answering for its own generation.
			seqsOfMatchesScan(t, db, ix)
			db, ix = grown, nix
		}
	}
}

// TestSequencesOfConcurrentFirstUse: the lists are built once however
// many goroutines ask for them first (run under -race).
func TestSequencesOfConcurrentFirstUse(t *testing.T) {
	db := randomDB(rand.New(rand.NewSource(3)), 50, 30)
	ix := NewIndex(db)
	var wg sync.WaitGroup
	got := make([][]int32, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = ix.SequencesOf(EventID(g % db.Dict.Size()))
		}()
	}
	wg.Wait()
	for g := range got {
		if want := ix.SequencesOf(EventID(g % db.Dict.Size())); !slices.Equal(got[g], want) {
			t.Fatalf("goroutine %d saw %v, want %v", g, got[g], want)
		}
	}
	seqsOfMatchesScan(t, db, ix)
}
