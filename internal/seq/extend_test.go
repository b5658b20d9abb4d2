package seq

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomDB builds a database of n random sequences over a small alphabet.
func randomDB(r *rand.Rand, n, maxLen int) *DB {
	db := NewDB()
	alphabet := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		length := 1 + r.Intn(maxLen)
		names := make([]string, length)
		for j := range names {
			names[j] = alphabet[r.Intn(len(alphabet))]
		}
		db.Add(fmt.Sprintf("S%d", i+1), names)
	}
	return db
}

// indexesEqual asserts ix answers every primitive identically to want over
// db's contents.
func indexesEqual(t *testing.T, db *DB, want, got *Index) {
	t.Helper()
	nEvents := EventID(db.Dict.Size())
	for e := EventID(0); e < nEvents; e++ {
		if w, g := want.SingletonSupport(e), got.SingletonSupport(e); w != g {
			t.Fatalf("SingletonSupport(%d): want %d, got %d", e, w, g)
		}
	}
	for i := range db.Seqs {
		for e := EventID(0); e < nEvents; e++ {
			pw, pg := want.Positions(i, e), got.Positions(i, e)
			if len(pw) != len(pg) {
				t.Fatalf("Positions(%d,%d): want %v, got %v", i, e, pw, pg)
			}
			for k := range pw {
				if pw[k] != pg[k] {
					t.Fatalf("Positions(%d,%d): want %v, got %v", i, e, pw, pg)
				}
			}
			if w, g := want.LastPos(i, e), got.LastPos(i, e); w != g {
				t.Fatalf("LastPos(%d,%d): want %d, got %d", i, e, w, g)
			}
			if w, g := want.Count(i, e), got.Count(i, e); w != g {
				t.Fatalf("Count(%d,%d): want %d, got %d", i, e, w, g)
			}
			for lowest := int32(-1); lowest <= int32(len(db.Seqs[i])+1); lowest++ {
				if w, g := want.Next(i, e, lowest), got.Next(i, e, lowest); w != g {
					t.Fatalf("Next(%d,%d,%d): want %d, got %d", i, e, lowest, w, g)
				}
			}
		}
	}
	seqsOfMatchesScan(t, db, got)
}

func TestExtendAppendSequencesMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, fastNext := range []bool{false, true} {
		t.Run(fmt.Sprintf("fastNext=%t", fastNext), func(t *testing.T) {
			db := randomDB(r, 6, 20)
			base := NewIndexWith(db, IndexOptions{FastNext: fastNext})

			grown := db.Extend()
			grown.Add("S7", []string{"a", "g", "a", "b", "g"}) // new event "g"
			grown.Add("", []string{"c", "c", "f"})

			got := base.Extend(grown, nil)
			want := NewIndexWith(grown, IndexOptions{FastNext: fastNext})
			indexesEqual(t, grown, want, got)

			// The sealed base index still answers for the old database.
			fresh := NewIndexWith(db, IndexOptions{FastNext: fastNext})
			indexesEqual(t, db, fresh, base)
		})
	}
}

func TestExtendChangedSequenceMatchesFreshBuild(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(r, 5, 15)
		base := NewIndexWith(db, IndexOptions{FastNext: trial%2 == 0})

		grown := db.Extend()
		// Copy-on-write append of events to one existing sequence.
		i := r.Intn(len(db.Seqs))
		old := grown.Seqs[i]
		repl := make(Sequence, len(old), len(old)+3)
		copy(repl, old)
		repl = append(repl, grown.Dict.Intern("b"), grown.Dict.Intern("x"), grown.Dict.Intern("a"))
		grown.Seqs = append(grown.Seqs[:i:i], grown.Seqs[i:]...) // force a fresh backing array
		grown.Seqs[i] = repl
		grown.Add("", []string{"x", "b"})

		got := base.Extend(grown, []int{i})
		want := NewIndexWith(grown, IndexOptions{FastNext: base.Options().FastNext})
		indexesEqual(t, grown, want, got)
	}
}

// TestExtendSharesUnchangedTables proves the O(delta) claim structurally:
// the position lists of untouched sequences in the extended index are the
// same backing arrays as the base index's, i.e. Extend did not rebuild
// them.
func TestExtendSharesUnchangedTables(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	db := randomDB(r, 8, 25)
	base := NewIndexWith(db, IndexOptions{FastNext: true})

	grown := db.Extend()
	grown.Add("S9", []string{"a", "b", "c"})
	got := base.Extend(grown, nil)

	for i := range db.Seqs {
		for _, e := range base.Events(i) {
			bp, gp := base.Positions(i, e), got.Positions(i, e)
			if len(bp) == 0 {
				continue
			}
			if &bp[0] != &gp[0] {
				t.Fatalf("sequence %d event %d: position list was rebuilt, not shared", i, e)
			}
		}
	}
	if !got.HasFastNext(len(grown.Seqs) - 1) {
		t.Fatalf("appended sequence got no successor table")
	}
}

// TestExtendBudgetAccounting checks the FastNext byte budget carries across
// extensions: tables inherited from the base index count against the
// budget, so an appended sequence whose table would overflow it falls back
// to binary search — and FastNextBytes never exceeds the budget.
func TestExtendBudgetAccounting(t *testing.T) {
	db := NewDB()
	db.AddChars("S1", "ABABABAB")
	// Budget fits S1's table (2 events × 9 rows × 4B = 72B) with no room
	// for another of the same size.
	base := NewIndexWith(db, IndexOptions{FastNext: true, FastNextMemBudget: 100})
	if !base.HasFastNext(0) {
		t.Fatalf("S1 should fit the budget")
	}

	grown := db.Extend()
	grown.AddChars("S2", "BABABABA")
	got := base.Extend(grown, nil)
	if !got.HasFastNext(0) {
		t.Fatalf("inherited table lost")
	}
	if got.HasFastNext(1) {
		t.Fatalf("S2's table should exceed the remaining budget")
	}
	if got.FastNextBytes() > 100 {
		t.Fatalf("FastNextBytes %d exceeds budget", got.FastNextBytes())
	}

	// A smaller sequence still fits the leftover budget.
	grown2 := grown.Extend()
	grown2.AddChars("S3", "AB") // 2 events × 3 rows × 4B = 24B
	got2 := got.Extend(grown2, nil)
	if !got2.HasFastNext(2) {
		t.Fatalf("S3 should fit the leftover budget")
	}
	if got2.FastNextBytes() != 72+24 {
		t.Fatalf("FastNextBytes = %d, want 96", got2.FastNextBytes())
	}
}

// TestExtendChangedReleasesBudget: rebuilding a changed sequence releases
// its old table's bytes before charging the new one.
func TestExtendChangedReleasesBudget(t *testing.T) {
	db := NewDB()
	db.AddChars("S1", "ABABABAB")
	base := NewIndexWith(db, IndexOptions{FastNext: true, FastNextMemBudget: 150})

	grown := db.Extend()
	repl := make(Sequence, len(db.Seqs[0]), len(db.Seqs[0])+2)
	copy(repl, db.Seqs[0])
	repl = append(repl, grown.Dict.Intern("A"), grown.Dict.Intern("B"))
	grown.Seqs = append([]Sequence(nil), grown.Seqs...)
	grown.Seqs[0] = repl

	got := base.Extend(grown, []int{0})
	// New table: 2 events × 11 rows × 4B = 88B <= 150 only if the old 72B
	// were released first (72 + 88 = 160 > 150).
	if !got.HasFastNext(0) {
		t.Fatalf("rebuilt table should fit after releasing the old bytes")
	}
	if got.FastNextBytes() != 88 {
		t.Fatalf("FastNextBytes = %d, want 88", got.FastNextBytes())
	}
}
