// Command reprod is the long-running mining service: it hosts named
// sequence databases uploaded over HTTP and serves concurrent
// GSgrow/CloGSgrow/top-k mining requests, with client-cancellation support
// and an LRU result cache. See internal/server for the API.
//
// Usage:
//
//	reprod -addr :8372 -cache 64
//
// Then, from a client:
//
//	curl -X POST --data-binary @db.txt 'localhost:8372/v1/databases/mydb?format=tokens'
//	curl -X POST -d '{"closed":true,"minSupport":10}' localhost:8372/v1/databases/mydb/mine
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cli"
)

func main() {
	var cfg cli.ServeConfig
	flag.StringVar(&cfg.Addr, "addr", ":8372", "listen address")
	flag.IntVar(&cfg.CacheSize, "cache", 0, "result-cache entries (0 = default, negative disables)")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful-shutdown drain budget (0 = default 5s)")
	flag.StringVar(&cfg.DataDir, "data-dir", "", "host databases durably in this directory (recovered on boot; empty = in-memory)")
	flag.StringVar(&cfg.FsyncPolicy, "fsync", "always", "WAL fsync policy for -data-dir: always, interval, never")
	flag.DurationVar(&cfg.FsyncInterval, "fsync-interval", 0, "background fsync cadence under -fsync=interval (0 = default 100ms)")
	flag.Int64Var(&cfg.CheckpointBytes, "checkpoint-bytes", 0, "WAL size triggering automatic compaction (0 = default 4MiB, negative disables)")
	flag.DurationVar(&cfg.MineTimeout, "mine-timeout", 0, "per-request mining deadline; runs exceeding it answer 503 (0 = unbounded)")
	flag.IntVar(&cfg.MaxConcurrentMines, "max-concurrent-mines", 0, "cap on mining runs in flight; excess requests answer 429 (0 = unlimited)")
	flag.StringVar(&cfg.ReplicateFrom, "replicate-from", "", "run as a read-only follower of the primary at this base URL (requires -data-dir; empty = primary)")
	flag.Int64Var(&cfg.MaxLagBytes, "max-lag-bytes", 0, "follower readiness gate: answer 503 on /readyz when this many WAL bytes are unshipped (0 = disabled)")
	flag.DurationVar(&cfg.MaxLag, "max-lag", 0, "follower readiness gate: answer 503 on /readyz after this long without contact from the primary (0 = disabled)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// First signal: graceful drain (in-flight mining contexts cancel, the
	// listener closes, responses flush). A second signal falls through to
	// the default handler and kills the process immediately.
	go func() { <-ctx.Done(); stop() }()
	if err := cli.Serve(ctx, cfg, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "reprod:", err)
		os.Exit(1)
	}
}
