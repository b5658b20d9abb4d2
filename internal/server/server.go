// Package server exposes the miner as a long-running HTTP service: named
// sequence databases are uploaded once, then mined concurrently by many
// clients. The service is the request/response shape the interactive
// workloads of the literature need (dashboards re-issuing the same query,
// targeted pattern queries, streaming exploration):
//
//	POST   /v1/databases/{name}          upload/replace a database (body = file, ?format=)
//	POST   /v1/databases/{name}/append   stream NDJSON records into a database
//	GET    /v1/databases                 list databases with summary stats
//	GET    /v1/databases/{name}/stats    statistics of one database
//	DELETE /v1/databases/{name}          drop a database
//	POST   /v1/databases/{name}/mine     run GSgrow/CloGSgrow/top-k (JSON or NDJSON stream)
//	POST   /v1/databases/{name}/support  point query: support of one pattern
//	GET    /healthz                      liveness + cache counters
//	GET    /readyz                       readiness: per-database durability + degraded status
//
// Databases are snapshot stores: every append atomically publishes a new
// immutable generation, miners always run against the generation current
// when their request arrived, and the indexes are maintained incrementally
// (O(batch), not O(database)) across appends. Mining concurrently with
// appends is therefore safe by construction and needs no server-side
// locking.
//
// Mining requests honor client cancellation end to end: the request
// context is threaded into the DFS, so a dropped connection aborts the
// run within a bounded number of search nodes. Complete results are
// memoized in an LRU keyed by (upload generation, snapshot generation,
// canonical options): appending to one database moves only its own
// snapshot generation, so every other database keeps its warm entries.
package server

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/repl"
	"repro/internal/vfs"
)

// Config tunes a Server.
type Config struct {
	// CacheSize is the number of mining results kept in the LRU.
	// 0 selects DefaultCacheSize; negative disables caching.
	CacheSize int
	// DataDir, when non-empty, makes hosted databases durable: each
	// database lives in DataDir/<name> as checkpoint segments plus a
	// write-ahead log, uploads and appends are logged before they are
	// acknowledged, and New recovers every database found under DataDir.
	// Empty (the default) hosts everything in memory, exactly as before.
	DataDir string
	// Open configures every durable database the server opens, creates
	// or replicates (fsync policy, checkpoint threshold, degraded-mode
	// prober); its FS is also what the boot walk and the sidecar metadata
	// files go through. Ignored without DataDir.
	Open repro.OpenOptions
	// Sync and CheckpointWALBytes, when nonzero, override Open.Sync and
	// Open.CheckpointWALBytes. They are kept for callers written before
	// Open existed (perfbench/trace.go); new code sets Open.
	Sync               repro.SyncPolicy
	CheckpointWALBytes int64
	// MineTimeout bounds each mining run with a per-request deadline:
	// a run that exceeds it is aborted and answered 503. 0 = unbounded
	// (client cancellation still applies).
	MineTimeout time.Duration
	// MaxConcurrentMines caps mining runs in flight; excess requests are
	// shed immediately with 429 instead of queueing goroutines behind a
	// saturated CPU. 0 = unlimited. Cache hits are not counted — replay
	// is O(result), not a mining run.
	MaxConcurrentMines int
	// ReplicateFrom, when non-empty, runs the server in follower mode: it
	// replicates every database of the upstream primary at this base URL
	// into DataDir (required), serves reads from the local copies, and
	// answers write endpoints with 409 pointing at the primary. See the
	// replication endpoints in replication.go.
	ReplicateFrom string
	// MaxLagBytes and MaxLag gate follower readiness: a replica more than
	// MaxLagBytes behind the primary's WAL, or out of contact for longer
	// than MaxLag, flips /readyz to 503 so balancers stop routing stale
	// reads to it. 0 disables each bound.
	MaxLagBytes int64
	MaxLag      time.Duration
	// Logf, when set, receives operational log lines (replication
	// progress, follower reconciliation). Nil discards them.
	Logf func(format string, args ...any)

	// tuning shortens the replication cadences in this package's tests.
	tuning replTuning
}

// replTuning holds the replication cadences; zero selects each default.
type replTuning struct {
	poll, heartbeat     time.Duration // primary-side feed
	backoff, backoffMax time.Duration // follower reconnect schedule
	managerPoll         time.Duration // follower reconciliation with the upstream's list
}

// Defaults for Config zero values.
const (
	DefaultCacheSize = 64
	// DefaultMaxUploadBytes bounds an upload or append request body.
	DefaultMaxUploadBytes = 256 << 20 // 256 MiB
)

// Server hosts named sequence databases and serves mining requests.
// All methods are safe for concurrent use.
type Server struct {
	mu  sync.RWMutex
	dbs map[string]*dbEntry
	// gen is a server-wide monotonic upload counter. Using one counter for
	// all databases (rather than one per name) means a generation value is
	// never reused, even across delete + re-upload under the same name —
	// so a cache entry written by an in-flight mine of deleted contents
	// can never be served for the replacement database.
	gen uint64

	cache   *resultCache
	started time.Time

	// mineTimeout bounds each mining run; 0 = unbounded. mineSem is the
	// admission-control semaphore (nil = unlimited): a slot is held for
	// the duration of one mining run, and requests that find it full are
	// shed with 429.
	mineTimeout time.Duration
	mineSem     chan struct{}

	// dataDir and openOpts configure durability; dataDir == "" means
	// in-memory hosting.
	dataDir  string
	openOpts repro.OpenOptions

	// Replication state. replicateFrom != "" selects follower mode; the
	// manager goroutine (runManager) reconciles the replica set until
	// stopCh closes.
	replicateFrom string
	maxLagBytes   int64
	maxLag        time.Duration
	tuning        replTuning
	managerClient *http.Client
	stopCh        chan struct{}
	managerDone   chan struct{}
	closeOnce     sync.Once
	logFn         func(format string, args ...any)
	// dirMu serializes the operations that mutate a database's directory
	// (durable upload-replace, delete), per name. Two writers in one
	// directory — e.g. a replaced-but-still-open store's auto-checkpoint
	// racing a new upload's Create — could otherwise interleave sweeps
	// and segment writes into data loss.
	dirMu sync.Map // name -> *sync.Mutex
}

// lockDir serializes directory mutations for one database name; the
// returned func releases the lock.
func (s *Server) lockDir(name string) func() {
	mu, _ := s.dirMu.LoadOrStore(name, &sync.Mutex{})
	m := mu.(*sync.Mutex)
	m.Lock()
	return m.Unlock
}

// dbEntry is one hosted database. The entry itself is immutable — uploads
// replace it (bumping the server-wide generation) — while the Database
// inside is a snapshot store: appends advance its snapshot generation
// without touching the entry, and in-flight miners keep the snapshot they
// started with.
type dbEntry struct {
	name       string
	db         *repro.Database
	formatName string
	generation uint64 // server-wide upload generation
	created    time.Time
	// epoch identifies the database lineage for replication: minted on
	// every durable upload and every promotion, served to followers so
	// they detect wholesale replacement. "" for replicas (their epoch is
	// the upstream's, read live from replica status).
	epoch string
	// replica is non-nil while this database is a follower tailing the
	// upstream; promotion swaps in an entry without it.
	replica *repro.Replica
}

// New returns a Server. With Config.DataDir set, every database found
// under the directory is recovered (latest checkpoint segment + WAL tail
// replay) and hosted immediately; a database whose files cannot be
// recovered fails New rather than silently dropping data. Without
// DataDir the server is empty and purely in-memory, and New cannot fail.
func New(cfg Config) (*Server, error) {
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	open := cfg.Open
	if cfg.Sync != 0 {
		open.Sync = cfg.Sync
	}
	if cfg.CheckpointWALBytes != 0 {
		open.CheckpointWALBytes = cfg.CheckpointWALBytes
	}
	s := &Server{
		dbs:           make(map[string]*dbEntry),
		cache:         newResultCache(size),
		started:       time.Now(),
		dataDir:       cfg.DataDir,
		mineTimeout:   cfg.MineTimeout,
		openOpts:      open,
		replicateFrom: strings.TrimRight(cfg.ReplicateFrom, "/"),
		maxLagBytes:   cfg.MaxLagBytes,
		maxLag:        cfg.MaxLag,
		tuning:        cfg.tuning,
		logFn:         cfg.Logf,
	}
	if s.tuning.managerPoll <= 0 {
		s.tuning.managerPoll = DefaultManagerPoll
	}
	if cfg.MaxConcurrentMines > 0 {
		s.mineSem = make(chan struct{}, cfg.MaxConcurrentMines)
	}
	if s.replicateFrom != "" {
		if cfg.DataDir == "" {
			return nil, fmt.Errorf("server: follower mode (-replicate-from) requires a data dir")
		}
		s.managerClient = &http.Client{Timeout: 10 * time.Second}
	}
	if cfg.DataDir != "" {
		if err := s.boot(); err != nil {
			s.Close()
			return nil, err
		}
	}
	if s.replicateFrom != "" {
		s.stopCh = make(chan struct{})
		s.managerDone = make(chan struct{})
		go s.runManager()
	}
	return s, nil
}

// logf emits one operational log line through Config.Logf, if set.
func (s *Server) logf(format string, args ...any) {
	if s.logFn != nil {
		s.logFn(format, args...)
	}
}

// fsys is the filesystem durable state is read through (the injected
// fault-injection FS, or the OS).
func (s *Server) fsys() vfs.FS { return vfs.Or(s.openOpts.FS) }

// What the boot walk does with one directory of the data dir.
const (
	bootIgnore  = iota // not a served database: left alone, silently
	bootSkip           // a replica directory on a primary: logged, not served
	bootPrimary        // opened as a local primary; ignored if it holds no data
	bootReplica        // resumed as a replica of the upstream
)

// bootAction is the boot walk's decision table. Only directories this
// server created are databases: every acknowledged upload wrote
// format.meta before its 201, and a crash before that point left an
// unacknowledged upload, which the next upload simply replaces. A
// replica directory is served only in follower mode; serving it as a
// primary would fork the lineage silently, so the operator decides
// (restart with -replicate-from, or promote the directory).
//
//	follower  replica.meta  format.meta  action
//	yes       yes           any          resume the replica
//	any       no            no           ignore
//	no        yes           no           ignore
//	no        yes           yes          skip, with a log line
//	any       no            yes          open as a primary (promoted, or
//	                                     created before follower mode)
func bootAction(follower, replica, format bool) int {
	switch {
	case follower && replica:
		return bootReplica
	case !format:
		return bootIgnore
	case replica:
		return bootSkip
	default:
		return bootPrimary
	}
}

// boot is the one walk over the data dir at startup: it hosts every
// database directory as bootAction decides, reading through the
// configured FS. ReadDir sorts names, so upload generations are assigned
// deterministically across restarts. A replica resumes from its local
// position, so a follower restarts fine while the primary is down;
// databases the upstream has but the data dir lacks are picked up by the
// manager's first sync.
func (s *Server) boot() error {
	fsys := s.fsys()
	if err := fsys.MkdirAll(s.dataDir, 0o755); err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	entries, err := fsys.ReadDir(s.dataDir)
	if err != nil {
		return fmt.Errorf("server: data dir: %w", err)
	}
	for _, de := range entries {
		// Only directories that are valid database names are ours;
		// anything else in the data dir is left alone.
		if !de.IsDir() || !dbNameRE.MatchString(de.Name()) {
			continue
		}
		name, dir := de.Name(), s.dbDir(de.Name())
		format, hasFormat := s.readFormat(dir)
		switch bootAction(s.replicateFrom != "", repl.HasMeta(fsys, dir), hasFormat) {
		case bootReplica:
			if err := s.openReplicaEntry(name, format); err != nil {
				// Unreachable primary AND unusable local state; the
				// manager retries on its next sync.
				s.logf("server: follower: recover %q: %v", name, err)
			}
		case bootSkip:
			s.logf("server: %q is a replica directory; skipped (promote it or restart with -replicate-from)", name)
		case bootPrimary:
			db, err := repro.Open(dir, s.openOpts)
			if err != nil {
				return fmt.Errorf("server: recover database %q: %w", name, err)
			}
			if db.NumSequences() == 0 {
				// An empty database (e.g. deleted files, fresh dir with
				// only a meta file) is not served; don't surface a ghost.
				db.Close()
				continue
			}
			s.put(name, format, s.readOrCreateEpoch(dir), db)
		}
	}
	return nil
}

// dbDir returns the storage directory of a named database. Database
// names are path-safe by construction (dbNameRE).
func (s *Server) dbDir(name string) string {
	return filepath.Join(s.dataDir, name)
}

// formatMetaFile records a database's upload format inside its
// directory, so recovery can report it. The store sweeps only its own
// segment/WAL files, so the meta file survives re-uploads.
const formatMetaFile = "format.meta"

// writeSidecar durably records one line of metadata next to a
// database's storage files, through the configured FS.
func (s *Server) writeSidecar(dir, file, value string) error {
	return vfs.WriteFileAtomic(s.fsys(), filepath.Join(dir, file), []byte(value+"\n"))
}

// readSidecar returns the trimmed contents of a sidecar file; ok is false
// when it cannot be read.
func (s *Server) readSidecar(dir, file string) (value string, ok bool) {
	data, err := s.fsys().ReadFile(filepath.Join(dir, file))
	return strings.TrimSpace(string(data)), err == nil
}

// readFormat returns the directory's recorded upload format (tokens when
// unknown) and whether format.meta exists.
func (s *Server) readFormat(dir string) (string, bool) {
	name, ok := s.readSidecar(dir, formatMetaFile)
	if _, err := repro.ParseFormat(name); err != nil || !ok {
		return repro.Tokens.String(), ok
	}
	return name, ok
}

// Close flushes and fsyncs every durable database's write-ahead log and
// releases their files: the shutdown barrier that makes a graceful exit
// lose nothing even under fsync policies weaker than always. In-memory
// servers have nothing to flush; Close is then a no-op. The first error
// is reported but every database is closed regardless.
func (s *Server) Close() error {
	// Stop the follower-mode manager first so it cannot open new replicas
	// while entries are being closed.
	s.closeOnce.Do(func() {
		if s.stopCh != nil {
			close(s.stopCh)
			<-s.managerDone
		}
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, e := range s.dbs {
		if err := closeEntry(e); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Handler returns the HTTP handler serving the v1 API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/databases", s.handleList)
	mux.HandleFunc("POST /v1/databases/{name}", s.handleUpload)
	mux.HandleFunc("POST /v1/databases/{name}/append", s.handleAppend)
	mux.HandleFunc("DELETE /v1/databases/{name}", s.handleDelete)
	mux.HandleFunc("GET /v1/databases/{name}/stats", s.handleStats)
	mux.HandleFunc("POST /v1/databases/{name}/mine", s.handleMine)
	mux.HandleFunc("POST /v1/databases/{name}/support", s.handleSupport)
	mux.HandleFunc("GET /v1/replication/{name}/segment", s.handleReplSegment)
	mux.HandleFunc("GET /v1/replication/{name}/wal", s.handleReplWAL)
	mux.HandleFunc("POST /v1/replication/{name}/promote", s.handlePromote)
	return mux
}

// put registers (or replaces) a database under name and returns the new
// entry. A replaced durable database is closed: its directory now
// belongs to the new one, and its in-memory snapshots stay valid for
// in-flight miners.
func (s *Server) put(name, formatName, epoch string, db *repro.Database) *dbEntry {
	s.mu.Lock()
	old := s.dbs[name]
	s.gen++
	e := &dbEntry{
		name:       name,
		db:         db,
		formatName: formatName,
		generation: s.gen,
		created:    time.Now(),
		epoch:      epoch,
	}
	s.dbs[name] = e
	s.mu.Unlock()
	if old != nil {
		_ = closeEntry(old)
	}
	return e
}

func (s *Server) get(name string) (*dbEntry, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.dbs[name]
	return e, ok
}

func (s *Server) delete(name string) (bool, error) {
	// Serialize against durable upload-replace: deleting the directory
	// out from under an in-flight Persist (or vice versa) must not
	// interleave.
	unlock := s.lockDir(name)
	defer unlock()
	s.mu.Lock()
	e, ok := s.dbs[name]
	delete(s.dbs, name)
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	// Keys carry the never-reused upload generation, so no later upload
	// can hit the old entries; dropping them only frees their memory.
	s.cache.purgePrefix(name + "@")
	_ = closeEntry(e)
	if s.dataDir != "" {
		// Deleting a durable database removes its files: DELETE means the
		// data is gone, not "gone until the next restart resurrects it".
		if err := s.removeDBDir(name); err != nil {
			return true, err
		}
	}
	return true, nil
}

// removeDBDir durably deletes a database directory through the
// configured FS. format.meta goes first and the directory is fsynced:
// from then on the boot walk never opens the directory as a primary
// (bootAction), so the delete survives a crash at any later step; a
// follower may resume a half-removed replica, which its manager drops
// again. The remaining files (a database directory holds no
// subdirectories) and the directory follow, and the data dir is fsynced
// so the name is gone too.
func (s *Server) removeDBDir(name string) error {
	fsys, dir := s.fsys(), s.dbDir(name)
	entries, err := fsys.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	if err := fsys.Remove(filepath.Join(dir, formatMetaFile)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return err
	}
	for _, de := range entries {
		if de.Name() == formatMetaFile {
			continue
		}
		if err := fsys.Remove(filepath.Join(dir, de.Name())); err != nil {
			return err
		}
	}
	if err := fsys.Remove(dir); err != nil {
		return err
	}
	return fsys.SyncDir(s.dataDir)
}

func (s *Server) list() []*dbEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*dbEntry, 0, len(s.dbs))
	for _, e := range s.dbs {
		out = append(out, e)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}
