// Package cli implements the logic behind the cmd/ executables so it can
// be unit-tested: mining (cmd/gsgrow), dataset generation (cmd/datagen).
// The mains parse flags into the config structs here and pass streams.
package cli

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro"
	"repro/internal/datagen"
	"repro/internal/postprocess"
	"repro/internal/seq"
)

// MineConfig mirrors cmd/gsgrow's flags.
type MineConfig struct {
	Format      string  // tokens, chars, spmf
	MinSup      int     // support threshold
	Closed      bool    // CloGSgrow instead of GSgrow
	MaxLen      int     // maximum pattern length, 0 = unbounded
	MaxPatterns int     // pattern budget, 0 = unbounded
	Instances   bool    // print support sets
	Stats       bool    // print statistics only
	Support     string  // comma-separated pattern: report its support only
	Density     float64 // case-study post-processing threshold, 0 = off
	Top         int     // print only the first N patterns, 0 = all
	TopK        int     // mine the K highest-support patterns instead of using MinSup
	Workers     int     // parallel mining fan-out, <= 1 sequential

	Semantics     string  // occurrence semantics: repetitive, nonoverlap, compressed, gapped
	MinGap        int     // gapped semantics: minimum gap between consecutive events
	MaxGap        int     // gapped semantics: maximum gap between consecutive events
	CompressDelta float64 // compressed semantics: cover tolerance delta, 0 = default
}

// Mine reads a database from in and writes mining output to out.
func Mine(cfg MineConfig, in io.Reader, out io.Writer) error {
	data, err := io.ReadAll(in)
	if err != nil {
		return err
	}
	if cfg.Stats {
		db, err := parse(cfg.Format, data)
		if err != nil {
			return err
		}
		_, err = io.WriteString(out, seq.ComputeStats(db).Table())
		return err
	}
	format, err := repro.ParseFormat(cfg.Format)
	if err != nil {
		return err
	}
	db, err := repro.Load(bytes.NewReader(data), format)
	if err != nil {
		return err
	}
	snap := db.Snapshot()
	if cfg.Support != "" {
		reportSupport(cfg, snap, out)
		return nil
	}
	sem, err := repro.ParseSemantics(cfg.Semantics)
	if err != nil {
		return err
	}
	opt := repro.Options{
		MinSupport:       cfg.MinSup,
		Closed:           cfg.Closed,
		TopK:             cfg.TopK,
		MaxPatternLength: cfg.MaxLen,
		MaxPatterns:      cfg.MaxPatterns,
		CollectInstances: cfg.Instances,
		Workers:          cfg.Workers,
		Semantics:        sem,
		MinGap:           cfg.MinGap,
		MaxGap:           cfg.MaxGap,
		CompressDelta:    cfg.CompressDelta,
	}
	res, err := snap.Mine(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "# %s min_sup=%d: %d patterns in %v", opt.Algorithm(), cfg.MinSup, res.NumPatterns, res.Elapsed)
	if res.Truncated {
		fmt.Fprint(out, " (truncated)")
	}
	fmt.Fprintln(out)
	if cfg.TopK > 0 {
		// Frontier observability for the arena-backed best-first search:
		// high-water frontier size and the node-arena bytes behind it,
		// plus the requested→effective worker clamp.
		fmt.Fprintf(out, "# topk frontier: peak=%d nodes, arena=%d bytes, workers=%d/%d (effective/requested)\n",
			res.TopKFrontierPeak, res.TopKArenaBytes, res.WorkersEffective, res.WorkersRequested)
	}

	patterns := res.Patterns
	if cfg.Density > 0 {
		// The pipeline ranks ties in event-ID order; a parse of the same
		// input assigns the IDs exactly as the miner's own parse did.
		db, err := parse(cfg.Format, data)
		if err != nil {
			return err
		}
		if patterns, err = postprocess.CaseStudy(db, patterns, cfg.Density); err != nil {
			return err
		}
		fmt.Fprintf(out, "# post-processing (density>%.2f, maximal, ranked): %d patterns\n", cfg.Density, len(patterns))
	} else {
		sort.SliceStable(patterns, func(a, b int) bool {
			if patterns[a].Support != patterns[b].Support {
				return patterns[a].Support > patterns[b].Support
			}
			return len(patterns[a].Events) > len(patterns[b].Events)
		})
	}
	if cfg.Top > 0 && cfg.Top < len(patterns) {
		patterns = patterns[:cfg.Top]
	}
	for _, p := range patterns {
		fmt.Fprintf(out, "%d\t%s\n", p.Support, seq.JoinNames(p.Events))
		for _, ins := range p.Instances {
			fmt.Fprintf(out, "\t%s %v\n", ins.Sequence, ins.Positions)
		}
	}
	return nil
}

func parse(format string, data []byte) (*seq.DB, error) {
	f, err := seq.ParseFormat(format)
	if err != nil {
		return nil, err
	}
	return seq.Parse(bytes.NewReader(data), f)
}

func reportSupport(cfg MineConfig, snap *repro.Snapshot, out io.Writer) {
	names := strings.Split(cfg.Support, ",")
	sup := snap.Support(names)
	fmt.Fprintf(out, "sup(%s) = %d\n", strings.Join(names, " "), sup)
	if cfg.Instances && sup > 0 {
		for _, ins := range snap.SupportSet(names) {
			fmt.Fprintf(out, "  %s %v\n", ins.Sequence, ins.Positions)
		}
	}
}

// GenerateConfig mirrors cmd/datagen's flags.
type GenerateConfig struct {
	Dataset string // quest, gazelle, tcas, jboss
	Format  string // tokens, chars, spmf
	Seed    int64
	Stats   bool

	D, C, N, S int // quest parameters
	Sequences  int // gazelle/tcas/jboss override (0 = paper default)
}

// Generate writes the requested dataset to out; statistics (when
// requested) go to statsOut.
func Generate(cfg GenerateConfig, out, statsOut io.Writer) error {
	var db *seq.DB
	var err error
	switch cfg.Dataset {
	case "quest":
		db, err = datagen.Quest(datagen.QuestParams{D: cfg.D, C: cfg.C, N: cfg.N, S: cfg.S, Seed: cfg.Seed})
	case "gazelle":
		db, err = datagen.Gazelle(datagen.GazelleParams{NumSequences: cfg.Sequences, Seed: cfg.Seed})
	case "tcas":
		db, err = datagen.TCAS(datagen.TCASParams{NumTraces: cfg.Sequences, Seed: cfg.Seed})
	case "jboss":
		db, err = datagen.JBoss(datagen.JBossParams{NumTraces: cfg.Sequences, Seed: cfg.Seed})
	default:
		return fmt.Errorf("unknown dataset %q (want quest, gazelle, tcas, or jboss)", cfg.Dataset)
	}
	if err != nil {
		return err
	}
	f, err := seq.ParseFormat(cfg.Format)
	if err != nil {
		return err
	}
	if err := seq.Write(out, db, f); err != nil {
		return err
	}
	if cfg.Stats {
		if _, err := io.WriteString(statsOut, seq.ComputeStats(db).Table()); err != nil {
			return err
		}
	}
	return nil
}
