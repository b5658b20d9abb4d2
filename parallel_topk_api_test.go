package repro

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/datagen"
)

func TestPublicWorkers(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCACBDDB")
	db.AddString("S2", "ACDBACADD")
	seqRes, err := db.MineClosed(Options{MinSupport: 3})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := db.MineClosed(Options{MinSupport: 3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqRes.Patterns) != len(parRes.Patterns) {
		t.Fatalf("sequential %d vs parallel %d patterns", len(seqRes.Patterns), len(parRes.Patterns))
	}
	for i := range seqRes.Patterns {
		a := strings.Join(seqRes.Patterns[i].Events, "")
		b := strings.Join(parRes.Patterns[i].Events, "")
		if a != b || seqRes.Patterns[i].Support != parRes.Patterns[i].Support {
			t.Errorf("pattern %d: %s/%d vs %s/%d", i, a, seqRes.Patterns[i].Support, b, parRes.Patterns[i].Support)
		}
	}
}

// TestPublicTopKWorkers: Workers under TopK returns byte-identical
// results to the sequential search for every k, through both Mine and
// MineTopKWith.
func TestPublicTopKWorkers(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCACBDDBABCACBDDB")
	db.AddString("S2", "ACDBACADDACDBACADD")
	for _, closed := range []bool{false, true} {
		for _, k := range []int{1, 10, 100} {
			seqRes, err := db.Mine(Options{TopK: k, Closed: closed})
			if err != nil {
				t.Fatal(err)
			}
			parRes, err := db.Snapshot().MineTopKWith(k, closed, TopKOptions{Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if len(seqRes.Patterns) != len(parRes.Patterns) {
				t.Fatalf("closed=%v k=%d: sequential %d vs parallel %d patterns",
					closed, k, len(seqRes.Patterns), len(parRes.Patterns))
			}
			for i := range seqRes.Patterns {
				a := strings.Join(seqRes.Patterns[i].Events, "")
				b := strings.Join(parRes.Patterns[i].Events, "")
				if a != b || seqRes.Patterns[i].Support != parRes.Patterns[i].Support {
					t.Errorf("closed=%v k=%d rank %d: %s/%d vs %s/%d",
						closed, k, i, a, seqRes.Patterns[i].Support, b, parRes.Patterns[i].Support)
				}
			}
		}
	}
}

// TestPublicWorkersBudgetDeterministic: Options.MaxPatterns under Workers
// returns exactly the sequential run's first N patterns, as documented.
func TestPublicWorkersBudgetDeterministic(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCACBDDBABCACBDDB")
	db.AddString("S2", "ACDBACADDACDBACADD")
	seqRes, err := db.Mine(Options{MinSupport: 2, MaxPatterns: 25})
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := db.Mine(Options{MinSupport: 2, MaxPatterns: 25, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !seqRes.Truncated || !parRes.Truncated {
		t.Fatalf("expected both runs truncated (seq=%v par=%v)", seqRes.Truncated, parRes.Truncated)
	}
	if len(parRes.Patterns) != len(seqRes.Patterns) {
		t.Fatalf("budget: sequential %d vs parallel %d patterns", len(seqRes.Patterns), len(parRes.Patterns))
	}
	for i := range seqRes.Patterns {
		a := strings.Join(seqRes.Patterns[i].Events, "")
		b := strings.Join(parRes.Patterns[i].Events, "")
		if a != b {
			t.Errorf("budget rank %d: %s vs %s", i, a, b)
		}
	}
}

func TestPublicMineTopK(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "ABCACBDDB")
	db.AddString("S2", "ACDBACADD")
	res, err := db.MineTopK(3, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Patterns) != 3 {
		t.Fatalf("got %d patterns", len(res.Patterns))
	}
	if strings.Join(res.Patterns[0].Events, "") != "AD" || res.Patterns[0].Support != 5 {
		t.Errorf("top closed pattern = %v/%d, want AD/5", res.Patterns[0].Events, res.Patterns[0].Support)
	}
	for i := 1; i < len(res.Patterns); i++ {
		if res.Patterns[i-1].Support < res.Patterns[i].Support {
			t.Error("top-k not in support order")
		}
	}
	if _, err := db.MineTopK(0, false); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestPublicTopKBeyondTotal(t *testing.T) {
	db := NewDatabase()
	db.AddString("", "AB")
	res, err := db.MineTopK(100, false)
	if err != nil {
		t.Fatal(err)
	}
	// Patterns of AB: A, B, AB.
	if len(res.Patterns) != 3 {
		t.Errorf("got %d patterns, want 3", len(res.Patterns))
	}
}

// TestParallelBudgetStreamMatchesResult: a run with Workers > 1 under
// MaxPatterns streams exactly Result.Patterns, in order — not every
// pattern a worker found before the merge trimmed the budget — with and
// without DiscardPatterns, and a false return still truncates.
func TestParallelBudgetStreamMatchesResult(t *testing.T) {
	quest, err := datagen.Quest(datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i, s := range quest.Seqs {
		names := make([]string, len(s))
		for j, e := range s {
			names[j] = quest.Dict.Name(e)
		}
		db.Add(quest.Label(i), names)
	}
	want, err := db.Mine(Options{MinSupport: 10, MaxPatterns: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Patterns) != 3 {
		t.Fatalf("sequential reference found %d patterns, want 3", len(want.Patterns))
	}
	for _, discard := range []bool{false, true} {
		var streamed []Pattern
		res, err := db.Mine(Options{MinSupport: 10, MaxPatterns: 3, Workers: 2, DiscardPatterns: discard,
			OnPattern: func(p Pattern) bool { streamed = append(streamed, p); return true }})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(streamed, want.Patterns) {
			t.Fatalf("discard=%v: streamed %d patterns %v, want Result.Patterns %v", discard, len(streamed), streamed, want.Patterns)
		}
		if res.NumPatterns != 3 || !res.Truncated {
			t.Fatalf("discard=%v: NumPatterns=%d Truncated=%v, want 3 and true", discard, res.NumPatterns, res.Truncated)
		}
		if discard != (res.Patterns == nil) || !discard && !reflect.DeepEqual(res.Patterns, want.Patterns) {
			t.Fatalf("discard=%v: Result.Patterns = %v", discard, res.Patterns)
		}
	}

	var streamed []Pattern
	res, err := db.Mine(Options{MinSupport: 10, MaxPatterns: 3, Workers: 2,
		OnPattern: func(p Pattern) bool { streamed = append(streamed, p); return false }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, want.Patterns[:1]) || !reflect.DeepEqual(res.Patterns, want.Patterns[:1]) || !res.Truncated {
		t.Fatalf("stop after one: streamed %v, result %v truncated=%v", streamed, res.Patterns, res.Truncated)
	}
}
