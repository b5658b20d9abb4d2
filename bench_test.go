package repro_test

// Go benchmarks over the paper's evaluation workloads (EXPERIMENTS.md
// records the figures themselves, run by cmd/experiments from
// scripts/paper/*.json). Each figure gets one bench per algorithm per
// X-position, named so `go test -bench 'Fig2'` profiles one figure's
// kernel at the bench scale of scripts/paper/bench.json. Ablation benches
// A1-A4 quantify the design choices EXPERIMENTS.md lists under
// "Ablations".

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/gapped"
	"repro/internal/harness"
	"repro/internal/postprocess"
	"repro/internal/seq"
)

// Datasets are generated once and cached; generation cost must not pollute
// mining benches.
var benchCache struct {
	sync.Mutex
	dbs map[string]*seq.DB
	ixs map[string]*seq.Index
}

func benchDB(b *testing.B, name string, gen func() (*seq.DB, error)) (*seq.DB, *seq.Index) {
	b.Helper()
	benchCache.Lock()
	defer benchCache.Unlock()
	if benchCache.dbs == nil {
		benchCache.dbs = map[string]*seq.DB{}
		benchCache.ixs = map[string]*seq.Index{}
	}
	if db, ok := benchCache.dbs[name]; ok {
		return db, benchCache.ixs[name]
	}
	db, err := gen()
	if err != nil {
		b.Fatal(err)
	}
	ix := seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
	benchCache.dbs[name] = db
	benchCache.ixs[name] = ix
	return db, ix
}

func questScaled(b *testing.B) (*seq.DB, *seq.Index) {
	return benchDB(b, "quest", func() (*seq.DB, error) {
		return datagen.Quest(datagen.QuestParams{D: 1, C: 20, N: 1, S: 20, Seed: 1})
	})
}

func gazelleScaled(b *testing.B) (*seq.DB, *seq.Index) {
	return benchDB(b, "gazelle", func() (*seq.DB, error) {
		return datagen.Gazelle(datagen.GazelleParams{NumSequences: 5000, Seed: 1})
	})
}

func tcasFull(b *testing.B) (*seq.DB, *seq.Index) {
	return benchDB(b, "tcas", func() (*seq.DB, error) {
		return datagen.TCAS(datagen.TCASParams{Seed: 3})
	})
}

func mineBench(b *testing.B, ix *seq.Index, opt core.Options) {
	b.Helper()
	b.ReportAllocs()
	var patterns int
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(ix, opt)
		if err != nil {
			b.Fatal(err)
		}
		patterns = res.NumPatterns
	}
	b.ReportMetric(float64(patterns), "patterns")
}

// --- Table I / Example 1.1: support semantics (T1) ---

func BenchmarkTable1Semantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if res.LargeRepetitiveAB != 300 {
			b.Fatalf("semantics drifted: %d", res.LargeRepetitiveAB)
		}
	}
}

// --- Figure 2: min_sup sweep on the Quest dataset (scaled D1C20N1S20) ---

func BenchmarkFig2(b *testing.B) {
	_, ix := questScaled(b)
	for _, ms := range []int{20, 15, 10, 8, 6} {
		b.Run(fmt.Sprintf("All/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, DiscardPatterns: true})
		})
		b.Run(fmt.Sprintf("Closed/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, Closed: true, DiscardPatterns: true})
		})
	}
	// The δ-compressed representatives (CRGSgrow flavour) of the closed
	// sets above: the closed mine plus Finalize's greedy cover.
	for _, ms := range []int{10, 8} {
		b.Run(fmt.Sprintf("Compressed/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, Semantics: core.Compressed, DiscardPatterns: true})
		})
	}
}

// BenchmarkCompressedFinalize times the compressed mode's representative
// selection alone: Finalize over the merged closed set it receives from
// the search, at the default δ.
func BenchmarkCompressedFinalize(b *testing.B) {
	_, ix := questScaled(b)
	for _, ms := range []int{10, 8} {
		opt := core.Options{MinSupport: ms, Semantics: core.Compressed}
		closed, err := core.Mine(ix, core.Compressed.SearchOptions(core.Options{MinSupport: ms}))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("minsup=%d", ms), func(b *testing.B) {
			b.ReportAllocs()
			var reps int
			for i := 0; i < b.N; i++ {
				reps = core.Compressed.Finalize(ix, opt, closed).NumPatterns
			}
			b.ReportMetric(float64(reps), "patterns")
		})
	}
}

// --- Parallel scaling: the Fig2 workload's hardest point (minsup=6) under
// the work-stealing scheduler at 1..8 workers. workers=1 goes through the
// sequential fast path, so the 1-worker line doubles as the scheduler's
// zero-overhead baseline; the parity tests guarantee identical output at
// every point. ---

func parallelMineBench(b *testing.B, ix *seq.Index, opt core.Options, workers int) {
	b.Helper()
	b.ReportAllocs()
	var patterns int
	for i := 0; i < b.N; i++ {
		res, err := core.MineParallel(ix, opt, workers)
		if err != nil {
			b.Fatal(err)
		}
		patterns = res.NumPatterns
	}
	b.ReportMetric(float64(patterns), "patterns")
}

func BenchmarkFig2ParallelScaling(b *testing.B) {
	_, ix := questScaled(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("All/minsup=6/workers=%d", workers), func(b *testing.B) {
			parallelMineBench(b, ix, core.Options{MinSupport: 6, DiscardPatterns: true}, workers)
		})
		b.Run(fmt.Sprintf("Closed/minsup=6/workers=%d", workers), func(b *testing.B) {
			parallelMineBench(b, ix, core.Options{MinSupport: 6, Closed: true, DiscardPatterns: true}, workers)
		})
	}
}

// --- Parallel scaling of the best-first top-k search (sharded frontiers,
// shared k-th-best bound) on the same workload. ---

func BenchmarkTopKParallelScaling(b *testing.B) {
	_, ix := questScaled(b)
	for _, k := range []int{10, 100, 1000} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("Closed/k=%d/workers=%d", k, workers), func(b *testing.B) {
				b.ReportAllocs()
				var patterns int
				for i := 0; i < b.N; i++ {
					res, err := core.MineTopKParallel(nil, ix, k, true, 0, workers)
					if err != nil {
						b.Fatal(err)
					}
					patterns = res.NumPatterns
				}
				b.ReportMetric(float64(patterns), "patterns")
			})
		}
	}
}

// --- Figure 3: min_sup sweep on the Gazelle-like click stream (scaled) ---

func BenchmarkFig3(b *testing.B) {
	_, ix := gazelleScaled(b)
	for _, ms := range []int{30, 20, 15, 10} {
		b.Run(fmt.Sprintf("All/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, DiscardPatterns: true})
		})
		b.Run(fmt.Sprintf("Closed/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, Closed: true, DiscardPatterns: true})
		})
	}
}

// --- Figure 4: min_sup sweep on the TCAS-like traces (dataset at full
// published scale; GSgrow is budget-capped below the cut-off, as in the
// paper's "..." region) ---

func BenchmarkFig4(b *testing.B) {
	_, ix := tcasFull(b)
	for _, ms := range []int{3000, 2000, 1500} {
		b.Run(fmt.Sprintf("All/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, DiscardPatterns: true, MaxPatterns: 1_000_000})
		})
	}
	for _, ms := range []int{3000, 2000, 1500, 1000} {
		b.Run(fmt.Sprintf("Closed/minsup=%d", ms), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: ms, Closed: true, DiscardPatterns: true})
		})
	}
}

// --- Figure 5: varying the number of sequences (scaled: D thousands of
// sequences, C=S=25, N=2, min_sup=20) ---

func BenchmarkFig5(b *testing.B) {
	for _, d := range []int{1, 2, 3} {
		d := d
		_, ix := benchDB(b, fmt.Sprintf("fig5-%d", d), func() (*seq.DB, error) {
			// Pattern pool pinned across the sweep so pattern frequencies
			// grow with D, as in the paper's fixed-pool Quest setup.
			return datagen.Quest(datagen.QuestParams{D: d, C: 25, N: 2, S: 12, NumPatterns: 800, Seed: 1})
		})
		b.Run(fmt.Sprintf("All/D=%dk", d), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: 20, DiscardPatterns: true})
		})
		b.Run(fmt.Sprintf("Closed/D=%dk", d), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: 20, Closed: true, DiscardPatterns: true})
		})
	}
}

// --- Figure 6: varying the average sequence length (scaled: D=2, N=2,
// C=S swept, min_sup=20) ---

func BenchmarkFig6(b *testing.B) {
	for _, c := range []int{10, 20, 30, 40} {
		_, ix := benchDB(b, fmt.Sprintf("fig6-%d", c), func() (*seq.DB, error) {
			return datagen.Quest(datagen.QuestParams{D: 2, C: c, N: 2, S: c / 2, Seed: 1})
		})
		b.Run(fmt.Sprintf("All/len=%d", c), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: 20, DiscardPatterns: true})
		})
		b.Run(fmt.Sprintf("Closed/len=%d", c), func(b *testing.B) {
			mineBench(b, ix, core.Options{MinSupport: 20, Closed: true, DiscardPatterns: true})
		})
	}
}

// --- Figure 7 / case study: JBoss-like traces, closed mining plus the
// post-processing pipeline (scaled-down trace count and noise) ---

func BenchmarkCaseStudy(b *testing.B) {
	db, ix := benchDB(b, "jboss", func() (*seq.DB, error) {
		return datagen.JBoss(datagen.JBossParams{NumTraces: 12, NoiseMean: 2, Seed: 9})
	})
	b.Run("Mine", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 12, Closed: true, DiscardPatterns: true})
	})
	b.Run("Pipeline", func(b *testing.B) {
		rep, err := harness.CaseStudy(harness.Dataset{JBoss: &datagen.JBossParams{NumTraces: 12, NoiseMean: 2, Seed: 9}},
			repro.Options{MinSupport: 12, Closed: true}, 0.40)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept, err := postprocess.CaseStudy(db, rep.Mined.Patterns, 0.40)
			if err != nil || len(kept[0].Events) < 66 {
				b.Fatalf("longest pattern %d < 66", len(kept[0].Events))
			}
		}
	})
}

// --- Experiment 1 sidebar: sequential-pattern baselines on the same data
// (the paper compares CloGSgrow against PrefixSpan, CloSpan and BIDE;
// remember these solve the easier sequence-count problem) ---

func BenchmarkBaselinesQuest(b *testing.B) {
	db, _ := questScaled(b)
	b.Run("PrefixSpan/minsup=20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.MinePrefixSpan(db, 20, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BIDE/minsup=20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.MineBIDE(db, 20, 0, true); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("CloSpanStyle/minsup=20", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := baseline.MineCloSpanStyle(db, 20, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation A1: candidate event lists vs full alphabet scan ---

func BenchmarkAblationCandidateEvents(b *testing.B) {
	_, ix := questScaled(b)
	b.Run("CandidateLists", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 10, DiscardPatterns: true})
	})
	b.Run("FullAlphabet", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 10, DiscardPatterns: true, FullAlphabetCandidates: true})
	})
}

// --- Ablation A2: landmark border checking on/off in CloGSgrow ---

func BenchmarkAblationLBCheck(b *testing.B) {
	_, ix := tcasFull(b)
	b.Run("WithLBCheck", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 1500, Closed: true, DiscardPatterns: true})
	})
	b.Run("WithoutLBCheck", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 1500, Closed: true, DiscardPatterns: true, DisableLBCheck: true})
	})
}

// --- Ablation A3: CloGSgrow vs mine-all + closed post-filter. The
// crossover depends on the all/closed ratio: on the Quest data at
// min_sup 10 the full set is only ~1.2x the closed set and post-filtering
// wins; on TCAS at min_sup 1000 the ratio is ~110x and CloGSgrow wins
// decisively (below GSgrow's cut-off, post-filtering is impossible
// altogether). ---

func BenchmarkAblationClosedPostFilter(b *testing.B) {
	_, qix := questScaled(b)
	b.Run("Quest/CloGSgrow", func(b *testing.B) {
		mineBench(b, qix, core.Options{MinSupport: 10, Closed: true, DiscardPatterns: true})
	})
	b.Run("Quest/MineAllThenFilter", func(b *testing.B) {
		postFilterBench(b, qix, 10)
	})
	_, tix := tcasFull(b)
	b.Run("TCAS/CloGSgrow", func(b *testing.B) {
		mineBench(b, tix, core.Options{MinSupport: 1000, Closed: true, DiscardPatterns: true})
	})
	b.Run("TCAS/MineAllThenFilter", func(b *testing.B) {
		postFilterBench(b, tix, 1000)
	})
}

func postFilterBench(b *testing.B, ix *seq.Index, minSup int) {
	b.Helper()
	b.ReportAllocs()
	var kept int
	for i := 0; i < b.N; i++ {
		res, err := core.Mine(ix, core.Options{MinSupport: minSup})
		if err != nil {
			b.Fatal(err)
		}
		kept = len(filterClosed(res.Patterns))
	}
	b.ReportMetric(float64(kept), "patterns")
}

// filterClosed is the naive post-filter: keep patterns with no
// equal-support proper supersequence in the mined set.
func filterClosed(patterns []core.Pattern) []core.Pattern {
	bySupport := map[int][]core.Pattern{}
	for _, p := range patterns {
		bySupport[p.Support] = append(bySupport[p.Support], p)
	}
	var out []core.Pattern
	for _, bucket := range bySupport {
		for _, p := range bucket {
			closed := true
			for _, q := range bucket {
				if len(q.Events) > len(p.Events) && isSubseqIDs(p.Events, q.Events) {
					closed = false
					break
				}
			}
			if closed {
				out = append(out, p)
			}
		}
	}
	return out
}

func isSubseqIDs(a, b []seq.EventID) bool {
	i := 0
	for j := 0; i < len(a) && j < len(b); j++ {
		if a[i] == b[j] {
			i++
		}
	}
	return i == len(a)
}

// --- Ablation A4: compressed (i, l1, ln) instances vs full landmarks ---

func BenchmarkAblationCompressedInstances(b *testing.B) {
	_, ix := questScaled(b)
	b.Run("Compressed", func(b *testing.B) {
		mineBench(b, ix, core.Options{MinSupport: 8, DiscardPatterns: true})
	})
	b.Run("FullLandmarks", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.MineAllFull(ix, core.Options{MinSupport: 8, DiscardPatterns: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Extension: gap-constrained mining (paper §V future work) ---

func BenchmarkGapConstrained(b *testing.B) {
	db, _ := tcasFull(b)
	small := seq.NewDB()
	for i := 0; i < 200 && i < len(db.Seqs); i++ {
		var names []string
		for _, e := range db.Seqs[i] {
			names = append(names, db.Dict.Name(e))
		}
		small.Add("", names)
	}
	for _, maxGap := range []int{0, 2} {
		b.Run(fmt.Sprintf("maxgap=%d", maxGap), func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				res, err := gapped.Mine(small, gapped.Options{MinSupport: 150, MaxGap: maxGap, MaxPatternLength: 5})
				if err != nil {
					b.Fatal(err)
				}
				n = len(res.Patterns)
			}
			b.ReportMetric(float64(n), "patterns")
		})
	}
}

// --- Micro-benchmarks of the primitives ---

func BenchmarkSupportOf(b *testing.B) {
	db, ix := tcasFull(b)
	pattern, err := db.EventSeq([]string{"cycle.begin", "advisory.eval", "cycle.commit"})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if core.SupportOf(ix, pattern) == 0 {
			b.Fatal("unexpected zero support")
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	db, _ := gazelleScaled(b)
	b.Run("BinarySearch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq.NewIndex(db)
		}
	})
	b.Run("FastNext", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seq.NewIndexWith(db, seq.IndexOptions{FastNext: true})
		}
	})
}

func BenchmarkPublicAPI(b *testing.B) {
	pub := repro.NewDatabase()
	pub.AddString("S1", "ABCACBDDB")
	pub.AddString("S2", "ACDBACADD")
	b.Run("Support", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if pub.Support([]string{"A", "C", "B"}) != 3 {
				b.Fatal("wrong support")
			}
		}
	})
	b.Run("MineClosed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pub.MineClosed(repro.Options{MinSupport: 3}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDurableAppend measures durable append throughput: one
// 8-record batch per op into a database directory, under the two fsync
// policies a production deployment chooses between. fsync=always pays
// one fsync per op (the acknowledged-writes-survive-anything contract);
// fsync=interval decouples acknowledgment from the disk barrier. Auto-
// checkpointing is left at the default, so the numbers include the
// amortized compaction cost a real ingest pays.
func BenchmarkDurableAppend(b *testing.B) {
	batch := make([]repro.Record, 8)
	for i := range batch {
		batch[i] = repro.Record{Events: []string{
			fmt.Sprintf("ev%d", i), "login", "view", fmt.Sprintf("ev%d", (i*7)%16), "logout",
		}}
	}
	for _, policy := range []repro.SyncPolicy{repro.SyncAlways, repro.SyncInterval} {
		b.Run("fsync="+policy.String(), func(b *testing.B) {
			db, err := repro.Open(b.TempDir(), repro.OpenOptions{Sync: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Append(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(8*b.N), "records")
		})
	}
}

// BenchmarkDurableAppendConcurrent measures what group commit buys:
// acked-records/s under fsync=always as the number of concurrent
// appenders grows. Each op is ONE durably acknowledged single-record
// append; `clients` goroutines race to claim ops from a shared counter,
// so clients=1 is the single-appender latency (the adaptive window must
// keep it within one commit window of a lone fsync) and
// clients=16 is the coalescing case — the committer packs concurrent
// commits into one write + one fsync, reported directly as fsyncs/rec
// (the acceptance floor is < 0.25 at clients=16). fsync=interval bounds
// what any fsync=always scheme can reach.
func BenchmarkDurableAppendConcurrent(b *testing.B) {
	rec := []repro.Record{{Events: []string{"login", "view", "logout"}}}
	run := func(b *testing.B, clients int, opt repro.OpenOptions) {
		db, err := repro.Open(b.TempDir(), opt)
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		if _, err := db.Append(rec); err != nil { // warm: WAL + first segment exist
			b.Fatal(err)
		}
		syncsBefore := db.Persistence().Fsyncs
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ReportAllocs()
		b.ResetTimer()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for next.Add(1) <= int64(b.N) {
					if _, err := db.Append(rec); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(b.N)/sec, "records/s")
		}
		b.ReportMetric(float64(db.Persistence().Fsyncs-syncsBefore)/float64(b.N), "fsyncs/rec")
	}
	for _, clients := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("fsync=always/clients=%d", clients), func(b *testing.B) {
			run(b, clients, repro.OpenOptions{Sync: repro.SyncAlways})
		})
	}
	b.Run("fsync=interval/clients=16", func(b *testing.B) {
		run(b, 16, repro.OpenOptions{Sync: repro.SyncInterval})
	})
}

// BenchmarkInMemoryAppend is the regression guard for the zero-config
// default: the durable plumbing must cost the in-memory append path
// nothing but a nil check.
func BenchmarkInMemoryAppend(b *testing.B) {
	batch := make([]repro.Record, 8)
	for i := range batch {
		batch[i] = repro.Record{Events: []string{
			fmt.Sprintf("ev%d", i), "login", "view", fmt.Sprintf("ev%d", (i*7)%16), "logout",
		}}
	}
	db := repro.NewDatabase()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Append(batch); err != nil {
			b.Fatal(err)
		}
	}
}
