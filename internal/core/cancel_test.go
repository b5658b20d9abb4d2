package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/seq"
)

// denseDB builds a random database whose all-pattern mine at min_sup=2
// visits far more than ctxCheckInterval DFS nodes, so mid-run cancellation
// has something to interrupt, while still finishing in well under a second
// if cancellation were broken.
func denseDB() *seq.DB {
	r := rand.New(rand.NewSource(42))
	db := seq.NewDB()
	alphabet := []string{"A", "B", "C", "D"}
	for i := 0; i < 3; i++ {
		events := make([]string, 25)
		for j := range events {
			events[j] = alphabet[r.Intn(len(alphabet))]
		}
		db.Add("", events)
	}
	return db
}

func TestMineCtxCancelMidRun(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	full := mustMine(t, ix, Options{MinSupport: 2, DiscardPatterns: true})
	if full.NumPatterns < 10*ctxCheckInterval {
		t.Fatalf("dense DB too sparse for a meaningful cancel test: %d patterns", full.NumPatterns)
	}

	const cancelAfter = 50
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	res := mustMine(t, ix, Options{
		MinSupport: 2,
		Ctx:        ctx,
		OnPattern: func(Pattern) bool {
			emitted++
			if emitted == cancelAfter {
				cancel()
			}
			return true
		},
	})
	if !res.Stats.Truncated {
		t.Error("cancelled run not marked Truncated")
	}
	if res.NumPatterns >= full.NumPatterns {
		t.Errorf("cancelled run emitted all %d patterns", full.NumPatterns)
	}
	// The DFS polls every ctxCheckInterval nodes and each node emits at
	// most one pattern, so overshoot past the cancel point is bounded.
	if res.NumPatterns > cancelAfter+2*ctxCheckInterval {
		t.Errorf("cancelled run emitted %d patterns, want <= %d", res.NumPatterns, cancelAfter+2*ctxCheckInterval)
	}
	if res.NumPatterns != len(res.Patterns) {
		t.Errorf("NumPatterns = %d, len(Patterns) = %d", res.NumPatterns, len(res.Patterns))
	}
}

func TestMineCtxPreCancelled(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, closed := range []bool{false, true} {
		res := mustMine(t, ix, Options{MinSupport: 2, Closed: closed, Ctx: ctx})
		if !res.Stats.Truncated {
			t.Errorf("closed=%t: pre-cancelled run not marked Truncated", closed)
		}
		if res.NumPatterns != 0 {
			t.Errorf("closed=%t: pre-cancelled run emitted %d patterns", closed, res.NumPatterns)
		}
	}
}

func TestMineClosedCtxCancelMidRun(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	res := mustMine(t, ix, Options{
		MinSupport: 2,
		Closed:     true,
		Ctx:        ctx,
		OnPattern: func(Pattern) bool {
			emitted++
			if emitted == 5 {
				cancel()
			}
			return true
		},
	})
	if !res.Stats.Truncated {
		t.Error("cancelled closed run not marked Truncated")
	}
}

func TestMineParallelCtxCancel(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	emitted := 0
	res, err := MineParallel(ix, Options{
		MinSupport: 2,
		Ctx:        ctx,
		OnPattern: func(Pattern) bool {
			emitted++ // serialized by MineParallel's callback mutex
			if emitted == 50 {
				cancel()
			}
			return true
		},
	}, 4)
	if err != nil {
		t.Fatalf("MineParallel: %v", err)
	}
	if !res.Stats.Truncated {
		t.Error("cancelled parallel run not marked Truncated")
	}
}

func TestMineAllFullCtxCancel(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineAllFull(ix, Options{MinSupport: 2, Ctx: ctx})
	if err != nil {
		t.Fatalf("MineAllFull: %v", err)
	}
	if !res.Stats.Truncated || res.NumPatterns != 0 {
		t.Errorf("pre-cancelled MineAllFull: truncated=%t patterns=%d", res.Stats.Truncated, res.NumPatterns)
	}
}

func TestMineTopKCtxCancelled(t *testing.T) {
	ix := seq.NewIndex(denseDB())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineTopKParallel(ctx, ix, 1000, false, 0, 1)
	if err != nil {
		t.Fatalf("MineTopKParallel: %v", err)
	}
	if !res.Stats.Truncated {
		t.Error("pre-cancelled top-k run not marked Truncated")
	}
	if res.NumPatterns >= 1000 {
		t.Errorf("pre-cancelled top-k emitted %d patterns", res.NumPatterns)
	}
	// An un-cancelled run still works and is unaffected by the ctx path.
	full, err := MineTopKParallel(context.Background(), ix, 10, false, 0, 1)
	if err != nil {
		t.Fatalf("MineTopKParallel: %v", err)
	}
	if full.NumPatterns != 10 || full.Stats.Truncated {
		t.Errorf("top-10: patterns=%d truncated=%t", full.NumPatterns, full.Stats.Truncated)
	}
}
