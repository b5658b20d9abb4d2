// Command gsgrow mines (closed) repetitive gapped subsequences from a
// sequence database file, implementing the GSgrow and CloGSgrow algorithms
// of Ding, Lo, Han, Khoo (ICDE 2009).
//
// Usage:
//
//	gsgrow -input db.txt -format tokens -minsup 10 -closed
//
// Formats: tokens (default; one sequence per line, whitespace-separated
// events, optional "label:" prefix), chars (one char = one event), spmf.
// With -stats the tool only prints database statistics. -support mines
// nothing and instead reports the repetitive support of one pattern given
// as comma-separated events. -density applies the paper's case-study
// post-processing (density filter, maximality, rank by length).
// -semantics selects the occurrence semantics: repetitive (default),
// nonoverlap (disjoint occurrences), compressed (CRGSgrow representative
// patterns, tuned with -compress-delta), or gapped (gap-constrained,
// tuned with -mingap/-maxgap). -workers parallelizes every mode; the
// output is identical to a single-worker run.
// The serve subcommand starts the long-running mining service instead.
// It is the same daemon as cmd/reprod and takes the same flags (see
// `reprod -h`): -addr, -debug-addr, -drain-timeout, -cache, -data-dir,
// -fsync, -fsync-interval, -checkpoint-bytes, -mine-timeout,
// -max-concurrent-mines, -replicate-from, -max-lag-bytes and -max-lag.
//
//	gsgrow serve -addr :8372
//
// With -replicate-from it serves as a read-only follower of another
// instance, and `gsgrow promote <dir>` turns a stopped follower's
// database directory into a writable primary (failover):
//
//	gsgrow serve -addr :8373 -data-dir /var/lib/replica -replicate-from http://primary:8372
//	gsgrow promote /var/lib/replica/mydb
//
// The append subcommand streams new sequences into a database hosted by a
// running service (labeled sequences upsert — re-sending a label appends
// events to that sequence):
//
//	gsgrow append -addr localhost:8372 -db mydb -input delta.txt -format tokens
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cli"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := cli.ServeMain(flag.NewFlagSet("serve", flag.ExitOnError), os.Args[2:], os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "gsgrow serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "append" {
		if err := runAppend(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "gsgrow append:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && (os.Args[1] == "inspect" || os.Args[1] == "compact" || os.Args[1] == "promote") {
		if err := runStorage(os.Args[1], os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "gsgrow %s: %v\n", os.Args[1], err)
			os.Exit(1)
		}
		return
	}
	var (
		input = flag.String("input", "", "input database file ('-' for stdin)")
		cfg   cli.MineConfig
	)
	flag.StringVar(&cfg.Format, "format", "tokens", "input format: tokens, chars, spmf")
	flag.IntVar(&cfg.MinSup, "minsup", 2, "repetitive support threshold")
	flag.BoolVar(&cfg.Closed, "closed", false, "mine closed patterns (CloGSgrow) instead of all (GSgrow)")
	flag.IntVar(&cfg.MaxLen, "maxlen", 0, "maximum pattern length (0 = unbounded)")
	flag.IntVar(&cfg.MaxPatterns, "maxpatterns", 0, "stop after this many patterns (0 = unbounded)")
	flag.BoolVar(&cfg.Instances, "instances", false, "print each pattern's support set")
	flag.BoolVar(&cfg.Stats, "stats", false, "print database statistics and exit")
	flag.StringVar(&cfg.Support, "support", "", "report the support of one comma-separated pattern and exit")
	flag.Float64Var(&cfg.Density, "density", 0, "post-process with the case-study pipeline at this density threshold")
	flag.IntVar(&cfg.Top, "top", 0, "print only the first N patterns (0 = all)")
	flag.IntVar(&cfg.TopK, "topk", 0, "mine the K highest-support patterns instead of using -minsup")
	flag.IntVar(&cfg.Workers, "workers", 1, "parallel mining fan-out")
	flag.StringVar(&cfg.Semantics, "semantics", "repetitive", "occurrence semantics: repetitive, nonoverlap, compressed, gapped (all honour -workers)")
	flag.IntVar(&cfg.MinGap, "mingap", 0, "minimum gap between consecutive events (-semantics gapped)")
	flag.IntVar(&cfg.MaxGap, "maxgap", 0, "maximum gap between consecutive events (-semantics gapped)")
	flag.Float64Var(&cfg.CompressDelta, "compress-delta", 0, "cover tolerance for -semantics compressed (0 = default 0.1)")
	flag.Parse()

	if err := run(*input, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "gsgrow:", err)
		os.Exit(1)
	}
}

// runStorage handles the durable-storage subcommands: `gsgrow inspect
// <dir>` summarizes a database directory's segments, WAL, replication
// role, and the state recovery would reconstruct (with -json, as one
// JSON document per directory), exiting nonzero on any corruption or
// torn tail so it slots directly into monitoring; `gsgrow compact
// <dir>` checkpoints the WAL into a fresh segment; `gsgrow promote
// <dir>` converts a stopped follower's replica directory into a
// writable primary (failover when the primary is gone). All take
// database directories (e.g. <data-dir>/<name> of a reprod -data-dir
// deployment).
func runStorage(cmd string, args []string) error {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	var asJSON bool
	if cmd == "inspect" {
		fs.BoolVar(&asJSON, "json", false, "emit the report as JSON")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: gsgrow %s <dir> [<dir>...]", cmd)
	}
	// Process every directory before failing: one damaged database must
	// not hide the report (or the damage) of the next.
	var firstErr error
	for _, dir := range fs.Args() {
		var err error
		switch cmd {
		case "inspect":
			err = cli.Inspect(dir, asJSON, os.Stdout)
		case "promote":
			err = cli.Promote(dir, os.Stdout)
		default:
			err = cli.Compact(dir, os.Stdout)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

func runAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	var cfg cli.AppendConfig
	var input string
	fs.StringVar(&cfg.Addr, "addr", "localhost:8372", "address of the running service")
	fs.StringVar(&cfg.DB, "db", "", "target database name")
	fs.StringVar(&cfg.Format, "format", "tokens", "input format: tokens, chars, spmf, or ndjson (raw append records)")
	fs.StringVar(&input, "input", "", "input file ('-' for stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if input == "" {
		return fmt.Errorf("missing -input")
	}
	var in io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return cli.Append(cfg, in, os.Stdout)
}

func run(input string, cfg cli.MineConfig) error {
	if input == "" {
		return fmt.Errorf("missing -input")
	}
	var in io.Reader = os.Stdin
	if input != "-" {
		f, err := os.Open(input)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return cli.Mine(cfg, in, os.Stdout)
}
