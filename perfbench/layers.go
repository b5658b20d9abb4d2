package main

import (
	"bytes"
	"context"
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/gapped"
	"repro/internal/seq"
	"repro/internal/store"
)

// runRepro runs q through the public library against one snapshot, the
// way the server's handler does.
func runRepro(snap *repro.Snapshot, q query) (*repro.Result, error) {
	if q.TopK > 0 {
		return snap.MineTopKWith(q.TopK, q.Closed, repro.TopKOptions{Workers: q.Workers})
	}
	sem, err := repro.ParseSemantics(q.Semantics)
	if err != nil {
		return nil, err
	}
	opt := repro.Options{
		MinSupport: q.MinSupport,
		Workers:    q.Workers,
		Semantics:  sem,
		MaxGap:     q.MaxGap,
	}
	if q.Stream {
		// The streaming handler mines with a per-pattern callback.
		opt.OnPattern = func(repro.Pattern) bool { return true }
	}
	if q.Closed {
		return snap.MineClosed(opt)
	}
	return snap.Mine(opt)
}

// coreRun is the outcome of one kernel call.
type coreRun struct {
	patterns int
	stats    core.MineStats // zero for the gapped miner
	gapped   bool
}

// runCore runs q directly against the kernel (internal/core, or
// internal/gapped for gapped semantics) on a store snapshot whose index is
// already built.
func runCore(snap *store.Snapshot, q query) (coreRun, error) {
	if q.Semantics == "gapped" {
		res, err := gapped.Mine(snap.DB(), gapped.Options{MinSupport: q.MinSupport, MaxGap: q.MaxGap})
		if err != nil {
			return coreRun{}, err
		}
		return coreRun{patterns: len(res.Patterns), gapped: true}, nil
	}
	var res *core.Result
	var err error
	if q.TopK > 0 {
		res, err = core.MineTopKParallel(context.Background(), snap, q.TopK, q.Closed, 0, q.Workers)
	} else {
		opt := core.Options{MinSupport: q.MinSupport, Closed: q.Closed}
		switch q.Semantics {
		case "nonoverlap":
			opt.Semantics = core.NonOverlapping
		case "compressed":
			opt.Semantics = core.Compressed
		case "", "repetitive":
		default:
			return coreRun{}, fmt.Errorf("unknown semantics %q", q.Semantics)
		}
		if q.Workers > 1 {
			res, err = core.MineParallel(snap, opt, q.Workers)
		} else {
			res, err = core.Mine(snap, opt)
		}
	}
	if err != nil {
		return coreRun{}, err
	}
	return coreRun{patterns: res.NumPatterns, stats: res.Stats}, nil
}

// loadLibrary parses upload bytes exactly as the server does.
func loadLibrary(data []byte) (*repro.Database, error) {
	return repro.Load(bytes.NewReader(data), repro.Tokens)
}

// parseSeq parses upload bytes into the kernel's database type.
func parseSeq(data []byte) (*seq.DB, error) {
	return seq.Parse(bytes.NewReader(data), seq.FormatTokens)
}

func toRepro(recs []record) []repro.Record {
	out := make([]repro.Record, len(recs))
	for i, r := range recs {
		out[i] = repro.Record{Label: r.Label, Events: r.Events}
	}
	return out
}

func toStore(recs []record) []store.Record {
	out := make([]store.Record, len(recs))
	for i, r := range recs {
		out[i] = store.Record{Label: r.Label, Events: r.Events}
	}
	return out
}

// uploads returns the upload bytes of each database a workload uses.
func (in *inputs) uploads() map[string][]byte {
	live := tokens(in.live)
	return map[string][]byte{"quest": tokens(in.quest), "gap": tokens(in.gap), liveDB(0): live, liveDB(1): live}
}

// expectedAnswers mines every query of w with the library on the exact
// upload bytes, before anything is timed.
func expectedAnswers(w workload, up map[string][]byte) (map[string]answer, error) {
	dbs := map[string]*repro.Database{}
	out := map[string]answer{}
	for _, q := range w.queries() {
		db, ok := dbs[q.DB]
		if !ok {
			var err error
			if db, err = loadLibrary(up[q.DB]); err != nil {
				return nil, err
			}
			dbs[q.DB] = db
		}
		res, err := runRepro(db.Snapshot(), q)
		if err != nil {
			return nil, fmt.Errorf("library %s: %v", q.Name, err)
		}
		out[q.Name] = libraryAnswer(res)
	}
	return out, nil
}
