package repro

import (
	"context"
	"testing"
)

// TestOptionsCtxCancel covers the public cancellation surface: a context
// cancelled mid-run stops the DFS and marks the result Truncated.
func TestOptionsCtxCancel(t *testing.T) {
	db := NewDatabase()
	// Dense enough that the run visits thousands of nodes.
	db.AddString("S1", "ABCDABCDABCDABCD")
	db.AddString("S2", "BADCBADCBADCBADC")
	db.AddString("S3", "CABDCABDCABDCABD")

	full, err := db.Mine(Options{MinSupport: 2, DiscardPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	if full.Truncated || full.NumPatterns < 1000 {
		t.Fatalf("full run: truncated=%t num=%d", full.Truncated, full.NumPatterns)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	res, err := db.Mine(Options{
		MinSupport: 2,
		Ctx:        ctx,
		OnPattern: func(p Pattern) bool {
			seen++
			if seen == 10 {
				cancel()
			}
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("cancelled run not marked Truncated")
	}
	if res.NumPatterns >= full.NumPatterns {
		t.Errorf("cancelled run emitted all %d patterns", full.NumPatterns)
	}
}

// TestOptionsOnPatternStop covers the public streaming surface: OnPattern
// sees every pattern, and returning false stops the run.
func TestOptionsOnPatternStop(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "AABCDABB")
	db.AddString("S2", "ABCD")

	var streamed []Pattern
	res, err := db.MineClosed(Options{
		MinSupport: 2,
		OnPattern: func(p Pattern) bool {
			streamed = append(streamed, p)
			return true
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(res.Patterns) {
		t.Fatalf("streamed %d patterns, result has %d", len(streamed), len(res.Patterns))
	}
	for i, p := range streamed {
		if p.Support != res.Patterns[i].Support {
			t.Errorf("pattern %d: streamed support %d, result %d", i, p.Support, res.Patterns[i].Support)
		}
	}

	count := 0
	res2, err := db.Mine(Options{
		MinSupport:      2,
		DiscardPatterns: true,
		OnPattern: func(Pattern) bool {
			count++
			return count < 3
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Truncated {
		t.Error("stopped stream not marked Truncated")
	}
	if len(res2.Patterns) != 0 {
		t.Errorf("DiscardPatterns kept %d patterns", len(res2.Patterns))
	}
	if res2.NumPatterns != 3 {
		t.Errorf("NumPatterns = %d, want 3", res2.NumPatterns)
	}
}

// TestMineTopKContextCancelled covers the public top-k cancellation path:
// Options.Ctx under TopK.
func TestMineTopKContextCancelled(t *testing.T) {
	db := NewDatabase()
	db.AddString("S1", "AABCDABB")
	db.AddString("S2", "ABCD")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := db.Mine(Options{TopK: 5, Closed: true, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Error("pre-cancelled top-k not marked Truncated")
	}

	// A nil context is tolerated, matching Options.Ctx semantics.
	resNil, err := db.Mine(Options{TopK: 2, Closed: true, Ctx: nil})
	if err != nil {
		t.Fatal(err)
	}
	if resNil.NumPatterns != 2 || resNil.Truncated {
		t.Errorf("nil-ctx top-k: patterns=%d truncated=%t", resNil.NumPatterns, resNil.Truncated)
	}
}
