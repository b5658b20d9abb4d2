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
// The serve subcommand starts the long-running mining service instead
// (same daemon as cmd/reprod):
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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
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

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var cfg cli.ServeConfig
	fs.StringVar(&cfg.Addr, "addr", ":8372", "listen address")
	fs.IntVar(&cfg.CacheSize, "cache", 0, "result-cache entries (0 = default, negative disables)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful-shutdown drain budget (0 = default 5s)")
	fs.StringVar(&cfg.DataDir, "data-dir", "", "host databases durably in this directory (recovered on boot; empty = in-memory)")
	fs.StringVar(&cfg.FsyncPolicy, "fsync", "always", "WAL fsync policy for -data-dir: always, interval, never")
	fs.DurationVar(&cfg.FsyncInterval, "fsync-interval", 0, "background fsync cadence under -fsync=interval (0 = default 100ms)")
	fs.Int64Var(&cfg.CheckpointBytes, "checkpoint-bytes", 0, "WAL size triggering automatic compaction (0 = default 4MiB, negative disables)")
	fs.DurationVar(&cfg.MineTimeout, "mine-timeout", 0, "per-request mining deadline; runs exceeding it answer 503 (0 = unbounded)")
	fs.IntVar(&cfg.MaxConcurrentMines, "max-concurrent-mines", 0, "cap on mining runs in flight; excess requests answer 429 (0 = unlimited)")
	fs.StringVar(&cfg.ReplicateFrom, "replicate-from", "", "run as a read-only follower of the primary at this base URL (requires -data-dir; empty = primary)")
	fs.Int64Var(&cfg.MaxLagBytes, "max-lag-bytes", 0, "follower readiness gate: answer 503 on /readyz when this many WAL bytes are unshipped (0 = disabled)")
	fs.DurationVar(&cfg.MaxLag, "max-lag", 0, "follower readiness gate: answer 503 on /readyz after this long without contact from the primary (0 = disabled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// After the first signal starts the graceful drain, restore default
	// signal handling so a second SIGINT/SIGTERM kills the process
	// immediately instead of waiting out the drain.
	go func() { <-ctx.Done(); stop() }()
	return cli.Serve(ctx, cfg, os.Stderr)
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
