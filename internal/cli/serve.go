package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro"
	"repro/internal/server"
)

// ServeConfig mirrors the flags of `gsgrow serve` and cmd/reprod.
type ServeConfig struct {
	Addr      string // listen address, e.g. ":8372"
	CacheSize int    // result-cache entries; 0 = default, < 0 disables
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
	// DataDir, when non-empty, makes hosted databases durable: every
	// database is recovered from this directory on boot, and uploads and
	// appends are write-ahead-logged before they are acknowledged. Empty
	// (the default) hosts everything in memory.
	DataDir string
	// FsyncPolicy is the WAL fsync policy for durable databases:
	// "always" (default; acknowledged writes survive any crash),
	// "interval", or "never".
	FsyncPolicy string
	// FsyncInterval is the background fsync cadence under "interval";
	// 0 selects the 100ms default.
	FsyncInterval time.Duration
	// CheckpointBytes triggers automatic WAL compaction when the log
	// exceeds this size; 0 selects the 4 MiB default, negative disables.
	CheckpointBytes int64
	// MineTimeout bounds each mining run with a per-request deadline;
	// runs that exceed it answer 503. 0 = unbounded (client cancellation
	// and graceful shutdown still abort runs).
	MineTimeout time.Duration
	// MaxConcurrentMines caps mining runs in flight; excess requests are
	// shed with 429 instead of queueing. 0 = unlimited.
	MaxConcurrentMines int
	// ReplicateFrom, when non-empty, runs the server as a read-only
	// follower of the primary at this base URL (e.g.
	// "http://primary:8372"): every database on the primary is
	// bootstrapped into DataDir and kept current by tailing its WAL.
	// Requires DataDir. Empty (the default) serves as a primary.
	ReplicateFrom string
	// MaxLagBytes fails a follower's readiness (503 on /readyz) when the
	// primary reports this many unshipped WAL bytes. 0 disables the
	// bytes-based gate.
	MaxLagBytes int64
	// MaxLag fails a follower's readiness when no frame (data or
	// heartbeat) has arrived from the primary for this long. 0 disables
	// the staleness gate.
	MaxLag time.Duration
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
	sync := repro.SyncAlways
	if cfg.FsyncPolicy != "" {
		var err error
		if sync, err = repro.ParseSyncPolicy(cfg.FsyncPolicy); err != nil {
			return err
		}
	}
	srv, err := server.New(server.Config{
		CacheSize:          cfg.CacheSize,
		DataDir:            cfg.DataDir,
		Sync:               sync,
		SyncInterval:       cfg.FsyncInterval,
		CheckpointWALBytes: cfg.CheckpointBytes,
		MineTimeout:        cfg.MineTimeout,
		MaxConcurrentMines: cfg.MaxConcurrentMines,
		ReplicateFrom:      cfg.ReplicateFrom,
		MaxLagBytes:        cfg.MaxLagBytes,
		MaxLag:             cfg.MaxLag,
		// Replication progress (bootstraps, reconnects, reconciliation)
		// goes to the same stream as the listen/shutdown lines.
		Logf: func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		},
	})
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
