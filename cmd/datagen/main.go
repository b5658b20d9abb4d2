// Command datagen writes the synthetic datasets of the paper's evaluation
// to stdout (or a file) in any of the supported formats.
//
//	datagen -dataset quest -D 5 -C 20 -N 10 -S 20 -seed 1 > d5c20n10s20.txt
//	datagen -dataset gazelle -o gazelle.txt
//	datagen -dataset tcas -o tcas.txt
//	datagen -dataset jboss -o jboss.txt
//
// See EXPERIMENTS.md ("Datasets") for how each generator substitutes
// the paper's unavailable original datasets.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
)

func main() {
	var (
		out = flag.String("o", "-", "output file ('-' for stdout)")
		cfg cli.GenerateConfig
	)
	flag.StringVar(&cfg.Dataset, "dataset", "quest", "quest, gazelle, tcas, or jboss")
	flag.StringVar(&cfg.Format, "format", "tokens", "output format: tokens, chars, spmf")
	flag.Int64Var(&cfg.Seed, "seed", 1, "generator seed")
	flag.BoolVar(&cfg.Stats, "stats", false, "print statistics to stderr after generating")
	flag.IntVar(&cfg.D, "D", 5, "quest: sequences (thousands)")
	flag.IntVar(&cfg.C, "C", 20, "quest: average events per sequence")
	flag.IntVar(&cfg.N, "N", 10, "quest: distinct events (thousands)")
	flag.IntVar(&cfg.S, "S", 20, "quest: average planted-pattern length")
	flag.IntVar(&cfg.Sequences, "sequences", 0, "gazelle/tcas/jboss: number of sequences (0 = paper default)")
	flag.Parse()

	if err := run(*out, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(out string, cfg cli.GenerateConfig) error {
	var w io.Writer = os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return cli.Generate(cfg, w, os.Stderr)
}
