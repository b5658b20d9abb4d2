package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

// ServeConfig is what `gsgrow serve` and cmd/reprod run: the listener
// settings plus the server's own configuration.
type ServeConfig struct {
	Addr string // listen address, e.g. ":8372"
	// DebugAddr, when non-empty, serves net/http/pprof on a second
	// listener (e.g. "localhost:6060") so production profiles can be
	// captured without exposing the profiler on the public address.
	// Empty (the default) disables it.
	DebugAddr string
	// DrainTimeout bounds graceful shutdown: on SIGINT/SIGTERM the server
	// stops accepting connections, cancels in-flight mining contexts (they
	// derive from the serve context), and waits up to this long for
	// responses to drain before force-closing the remaining connections.
	// 0 selects DefaultDrainTimeout.
	DrainTimeout time.Duration
	// Server configures the hosted service (cache, durability, admission,
	// replication). Serve fills in Logf when it is nil.
	Server server.Config
}

// ServeFlags registers the flags of `gsgrow serve` and cmd/reprod on fs
// and returns the config that parsing fs fills in.
func ServeFlags(fs *flag.FlagSet) *ServeConfig {
	cfg := &ServeConfig{}
	sc := &cfg.Server
	fs.StringVar(&cfg.Addr, "addr", ":8372", "listen address")
	fs.IntVar(&sc.CacheSize, "cache", 0, "result-cache entries (0 = default, negative disables)")
	fs.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", 0, "graceful-shutdown drain budget (0 = default 5s)")
	fs.StringVar(&sc.DataDir, "data-dir", "", "host databases durably in this directory (recovered on boot; empty = in-memory)")
	fs.Var(syncFlag{&sc.Open.Sync}, "fsync", "WAL fsync policy for -data-dir: always, interval, never")
	fs.DurationVar(&sc.Open.SyncInterval, "fsync-interval", 0, "background fsync cadence under -fsync=interval (0 = default 100ms)")
	fs.Int64Var(&sc.Open.CheckpointWALBytes, "checkpoint-bytes", 0, "WAL size triggering automatic compaction (0 = default 4MiB, negative disables)")
	fs.DurationVar(&sc.MineTimeout, "mine-timeout", 0, "per-request mining deadline; runs exceeding it answer 503 (0 = unbounded)")
	fs.IntVar(&sc.MaxConcurrentMines, "max-concurrent-mines", 0, "cap on mining runs in flight; excess requests answer 429 (0 = unlimited)")
	fs.StringVar(&sc.ReplicateFrom, "replicate-from", "", "run as a read-only follower of the primary at this base URL (requires -data-dir; empty = primary)")
	fs.Int64Var(&sc.MaxLagBytes, "max-lag-bytes", 0, "follower readiness gate: answer 503 on /readyz when this many WAL bytes are unshipped (0 = disabled)")
	fs.DurationVar(&sc.MaxLag, "max-lag", 0, "follower readiness gate: answer 503 on /readyz after this long without contact from the primary (0 = disabled)")
	return cfg
}

// syncFlag parses -fsync straight into a repro.SyncPolicy; the zero
// policy, SyncAlways, is the default, and so is an empty value.
type syncFlag struct{ p *repro.SyncPolicy }

func (f syncFlag) String() string {
	if f.p == nil {
		return ""
	}
	return f.p.String()
}

func (f syncFlag) Set(s string) error {
	if s == "" {
		*f.p = repro.SyncAlways
		return nil
	}
	p, err := repro.ParseSyncPolicy(s)
	if err == nil {
		*f.p = p
	}
	return err
}

// ServeMain parses args with the serve flags registered on fs and serves
// until SIGINT or SIGTERM. The first signal starts the graceful drain; it
// also restores default signal handling, so a second signal kills the
// process immediately instead of waiting out the drain.
func ServeMain(fs *flag.FlagSet, args []string, out io.Writer) error {
	cfg := ServeFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() { <-ctx.Done(); stop() }()
	return Serve(ctx, *cfg, out)
}

// DefaultDrainTimeout is the graceful-shutdown drain budget when
// ServeConfig.DrainTimeout is zero. In-flight miners see their context
// cancelled immediately on shutdown, so a few seconds is enough for even
// a long CloGSgrow run to notice (the DFS polls every few hundred nodes)
// and flush its partial response.
const DefaultDrainTimeout = 5 * time.Second

// debugHandler mounts the pprof endpoints on a fresh mux (the service
// handler never touches http.DefaultServeMux, and neither should this).
func debugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve runs the mining HTTP service until ctx is cancelled, then shuts
// down gracefully (in-flight mining requests are aborted through their own
// request contexts, and with DataDir set every database's write-ahead log
// is flushed and fsynced before Serve returns). The bound address is
// reported on out before serving, so callers binding ":0" can discover
// the port.
func Serve(ctx context.Context, cfg ServeConfig, out io.Writer) error {
	if cfg.Server.Logf == nil {
		// Replication progress (bootstraps, reconnects, reconciliation)
		// goes to the same stream as the listen/shutdown lines.
		cfg.Server.Logf = func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
	srv, err := server.New(cfg.Server)
	if err != nil {
		return err
	}
	// Whatever way Serve exits, flush and fsync every database's WAL:
	// a graceful shutdown must never lose acknowledged appends, even
	// under fsync policies that leave a tail unsynced in steady state.
	defer func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintf(out, "closing databases: %v\n", err)
		}
	}()
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Request contexts derive from ctx, so cancelling it aborts
		// in-flight mining DFS runs and lets Shutdown drain quickly.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "reprod listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	var debugSrv *http.Server
	if cfg.DebugAddr != "" {
		debugLn, err := net.Listen("tcp", cfg.DebugAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("debug listener: %w", err)
		}
		fmt.Fprintf(out, "pprof listening on %s\n", debugLn.Addr())
		debugSrv = &http.Server{Handler: debugHandler(), ReadHeaderTimeout: 10 * time.Second}
		go func() {
			// The debug server's lifecycle follows the main one; its
			// Serve error is only interesting if it is not a shutdown.
			if err := debugSrv.Serve(debugLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(out, "pprof server: %v\n", err)
			}
		}()
	}
	go func() { errc <- httpSrv.Serve(ln) }()
	select {
	case err := <-errc:
		if debugSrv != nil {
			debugSrv.Close()
		}
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		drain := cfg.DrainTimeout
		if drain <= 0 {
			drain = DefaultDrainTimeout
		}
		fmt.Fprintf(out, "shutting down (drain timeout %v)\n", drain)
		shutCtx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		if debugSrv != nil {
			debugSrv.Close()
		}
		// In-flight mining requests are already aborting: their contexts
		// derive from ctx via BaseContext, so the DFS polls observe the
		// cancellation and the handlers return promptly. Shutdown waits for
		// those responses to flush; if a connection outlives the drain
		// budget anyway (e.g. a stalled client), force-close it rather than
		// hanging the process — and report the degraded shutdown, so
		// supervisors can tell "clients were cut off" from a clean drain.
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			fmt.Fprintf(out, "drain timeout exceeded, force-closing: %v\n", err)
			return errors.Join(fmt.Errorf("graceful drain failed: %w", err), httpSrv.Close())
		}
		return nil
	}
}
