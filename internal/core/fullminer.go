package core

import (
	"time"

	"repro/internal/seq"
)

// MineAllFull mines all frequent patterns exactly like GSgrow but carries
// full landmarks through the DFS instead of the compressed (i, l1, ln)
// triples. It exists to quantify the benefit of the paper's "Compressed
// Storage of Instances" (Section III-D) — ablation A4 in EXPERIMENTS.md
// ("Ablations"). Output is identical to Mine with Closed=false; only the
// per-step allocation and copying differ.
func MineAllFull(v IndexView, opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	ix := v.MiningIndex()
	start := time.Now()
	f := &fullMiner{
		ix:   ix,
		opt:  opt,
		seen: make([]bool, ix.DB().Dict.Size()),
		res:  &Result{},
	}
	if ctxDone(opt.Ctx) {
		f.res.Stats.Truncated = true
		f.stopped = true
	}
	for _, e := range ix.FrequentEvents(opt.MinSupport) {
		if f.stopped {
			break
		}
		f.pattern = append(f.pattern[:0], e)
		f.grow(singletonFullSet(ix, e))
	}
	f.res.Stats.Duration = time.Since(start)
	return f.res, nil
}

type fullMiner struct {
	ix      *seq.Index
	opt     Options
	pattern []seq.EventID
	seen    []bool
	ctxTick int
	res     *Result
	stopped bool
}

func (f *fullMiner) grow(I FullSet) {
	f.res.Stats.NodesVisited++
	if d := len(f.pattern); d > f.res.Stats.MaxDepth {
		f.res.Stats.MaxDepth = d
	}
	if ctxPoll(f.opt.Ctx, &f.ctxTick) {
		f.stopped = true
		f.res.Stats.Truncated = true
		return
	}
	p := Pattern{Events: append([]seq.EventID(nil), f.pattern...), Support: len(I)}
	if f.opt.CollectInstances {
		ins := make(FullSet, len(I))
		copy(ins, I)
		p.Instances = ins
	}
	f.res.NumPatterns++
	if !f.opt.DiscardPatterns {
		f.res.Patterns = append(f.res.Patterns, p)
	}
	if f.opt.MaxPatterns > 0 && f.res.NumPatterns >= f.opt.MaxPatterns {
		f.stopped = true
		f.res.Stats.Truncated = true
		return
	}
	if f.opt.MaxPatternLength > 0 && len(f.pattern) >= f.opt.MaxPatternLength {
		return
	}
	for _, e := range f.candidates(I) {
		f.res.Stats.INSgrowCalls++
		I2 := insGrowFull(f.ix, I, e)
		if len(I2) < f.opt.MinSupport {
			continue
		}
		f.pattern = append(f.pattern, e)
		f.grow(I2)
		f.pattern = f.pattern[:len(f.pattern)-1]
		if f.stopped {
			return
		}
	}
}

// candidates mirrors miner.candidates over full-landmark sets.
func (f *fullMiner) candidates(I FullSet) []seq.EventID {
	out := make([]seq.EventID, 0, 16)
	start := 0
	for start < len(I) {
		si := I[start].Seq
		land := I[start].Land
		firstLast := land[len(land)-1]
		end := start
		for end < len(I) && I[end].Seq == si {
			end++
		}
		for _, e := range f.ix.Events(int(si)) {
			if f.seen[e] {
				continue
			}
			if f.ix.LastPos(int(si), e) > firstLast {
				f.seen[e] = true
				out = append(out, e)
			}
		}
		start = end
	}
	for _, e := range out {
		f.seen[e] = false
	}
	sortEventIDs(out)
	return out
}
