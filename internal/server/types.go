package server

import (
	"fmt"
	"strconv"
	"time"

	"repro"
)

// mineRequest is the JSON body of POST /v1/databases/{name}/mine: a
// repro.Options in its wire spelling (its JSON tags), whose Validate holds
// every rule on it, plus the response shape. The zero value is invalid:
// either minSupport >= 1 or topK >= 1 must be set.
type mineRequest struct {
	repro.Options
	// Stream selects an NDJSON response: one pattern object per line as
	// they are mined, then a final {"summary": ...} line. Also selected by
	// an "Accept: application/x-ndjson" header.
	Stream bool `json:"stream"`
}

// maxWorkers bounds the per-request worker count. Per-worker state is
// allocated eagerly, so an unbounded client-chosen count would be a
// memory DoS vector; 256 is far above any useful parallelism (work
// stealing saturates at NumCPU) and keeps those allocations trivial.
const maxWorkers = 256

// options returns the validated query the request spells. Every error
// wraps a repro sentinel, so the handler's one status table covers
// request validation too.
func (q *mineRequest) options() (repro.Options, error) {
	if q.Workers > maxWorkers {
		return repro.Options{}, fmt.Errorf("%w: workers must be <= %d, got %d", repro.ErrInvalidOptions, maxWorkers, q.Workers)
	}
	return q.Options, q.Options.Validate()
}

// cacheKey is the result-cache key of query opt against one snapshot:
// the data identity, then opt's canonical form. The data identity is the
// pair (upload generation, snapshot generation): the server-wide upload
// counter pins which upload the entry came from (never reused, even
// across delete + re-upload), and the snapshot generation advances with
// every append — so appending to one database invalidates exactly its own
// entries while every other database keeps its warm cache. Worker count
// and streaming are not part of the key: only complete results are
// cached, those are identical across worker counts, and a cached result
// can be replayed in either representation.
func cacheKey(db string, uploadGen, snapGen uint64, opt repro.Options) string {
	return db + "@" + strconv.FormatUint(uploadGen, 10) + "." + strconv.FormatUint(snapGen, 10) + "|" + opt.Canonical()
}

// mineOutcome is a finished mining run as held in the cache.
type mineOutcome struct {
	algorithm  string
	semantics  string // wire name of the occurrence semantics the run used
	generation uint64 // snapshot generation the run was pinned to
	workers    int    // worker count the run actually used (>= 1)
	result     *repro.Result
}

// mineSummary trails every mine response: the last NDJSON line, or the
// envelope fields of the buffered JSON response. Generation is the
// server-wide upload counter; SnapshotGeneration identifies the exact
// data generation the result was mined from (it advances with appends).
// Workers is the goroutine count the run actually used; replayed cache
// hits report the original run's count (results are identical across
// worker counts, which is also why workers does not fragment the cache).
type mineSummary struct {
	Database           string `json:"database"`
	Generation         uint64 `json:"generation"`
	SnapshotGeneration uint64 `json:"snapshotGeneration"`
	Algorithm          string `json:"algorithm"`
	Semantics          string `json:"semantics"`
	Workers            int    `json:"workers"`
	// EffectiveWorkers is the worker count the run actually used after
	// clamping to the host's GOMAXPROCS (observability only — output is
	// byte-identical at any worker count, so it is not a cache dimension).
	EffectiveWorkers int  `json:"effectiveWorkers,omitempty"`
	NumPatterns      int  `json:"numPatterns"`
	Truncated        bool `json:"truncated"`
	// TopKFrontierPeak/TopKArenaBytes describe the best-first frontier of
	// top-k runs (peak node count and node-arena footprint, summed across
	// worker shards); absent for threshold mining. Like the worker
	// fields, they are excluded from cache keys by construction.
	TopKFrontierPeak int     `json:"topkFrontierPeak,omitempty"`
	TopKArenaBytes   int64   `json:"topkArenaBytes,omitempty"`
	ElapsedMS        float64 `json:"elapsedMs"`
	Cached           bool    `json:"cached"`
}

// mineResponse is the buffered mine response: the summary fields, then
// the cached result's own patterns, encoded as they are.
type mineResponse struct {
	mineSummary
	Patterns []repro.Pattern `json:"patterns"`
}

// dbInfo is the report of one database. Stats, Persistence and
// Replication are the library's own values, encoded as they are.
type dbInfo struct {
	Name               string      `json:"name"`
	Format             string      `json:"format"`
	Generation         uint64      `json:"generation"`
	SnapshotGeneration uint64      `json:"snapshotGeneration"`
	Created            time.Time   `json:"created"`
	Stats              repro.Stats `json:"stats"`
	// Persistence is present only on durable hosts (-data-dir): the
	// database's sync policy and recovery state.
	Persistence *repro.Persistence `json:"persistence,omitempty"`
	// Replication is present for replicated databases: on a follower, the
	// tail position and lag against the upstream primary; on a primary
	// serving a replication feed, its role and lineage epoch.
	Replication *repro.ReplicaStatus `json:"replication,omitempty"`
}

// appendRecord is one line of the NDJSON append stream.
type appendRecord struct {
	// Label routes the events: a non-empty label naming an existing
	// sequence appends to that sequence; otherwise a new sequence is
	// created (empty label = auto-named).
	Label string `json:"label"`
	// Events are the event names to append, in order.
	Events []string `json:"events"`
}

// appendResponse reports a completed append: the database info reflects
// the new snapshot generation and statistics.
type appendResponse struct {
	dbInfo
	AppendedRecords int `json:"appendedRecords"`
}

// appendErrorResponse reports a failed append stream. Chunked ingestion
// means earlier chunks may already be durable; PartiallyApplied and
// AppliedRecords tell the client exactly where the stream stopped.
type appendErrorResponse struct {
	Error            string `json:"error"`
	AppliedRecords   int    `json:"appliedRecords"`
	PartiallyApplied bool   `json:"partiallyApplied"`
}

// toDBInfo reads the entry's current snapshot: stats and snapshot
// generation are whatever the latest append published. Stats come from
// the store's incrementally-maintained summary — O(1), never a database
// scan — so appends and list requests stay cheap at any database size.
func toDBInfo(e *dbEntry) dbInfo {
	snap := e.db.Snapshot()
	info := dbInfo{
		Name:               e.name,
		Format:             e.formatName,
		Generation:         e.generation,
		SnapshotGeneration: snap.Generation(),
		Created:            e.created,
		Stats:              snap.Stats(),
	}
	if e.replica != nil {
		st := e.replica.Status()
		info.Replication = &st
	} else if e.epoch != "" {
		info.Replication = &repro.ReplicaStatus{Role: repro.RolePrimary, Epoch: e.epoch}
	}
	if p := e.db.Persistence(); p.Durable {
		info.Persistence = &p
	}
	return info
}

// readyResponse is the body of GET /readyz. Status is "ready" when every
// database accepts appends, "degraded" when at least one is read-only —
// the signal a load balancer uses to drain a sick node while its mines
// keep answering.
type readyResponse struct {
	Status    string        `json:"status"`
	Databases []readyDBJSON `json:"databases"`
}

// readyDBJSON is one database's readiness: Ready mirrors "appends would
// be accepted"; the error fields carry the root causes when it is not
// (or when durability is limping — a failing checkpoint keeps Ready true
// but is worth an operator's attention).
type readyDBJSON struct {
	Name  string `json:"name"`
	Ready bool   `json:"ready"`
	// Role is "primary" or "follower"; a follower's Ready also reflects
	// the replication lag gate (-max-lag-bytes / -max-lag).
	Role    string `json:"role,omitempty"`
	Durable bool   `json:"durable"`
	// Replication carries a follower's tail position and lag.
	Replication     *repro.ReplicaStatus `json:"replication,omitempty"`
	Degraded        bool                 `json:"degraded,omitempty"`
	DegradedError   string               `json:"degradedError,omitempty"`
	WALError        string               `json:"walError,omitempty"`
	CheckpointError string               `json:"checkpointError,omitempty"`
	// CommitBatches and FsyncsSaved summarize group-commit coalescing
	// (fsync=always): how many batched WAL writes happened and how many
	// fsyncs they saved versus one-per-append.
	CommitBatches int64 `json:"commitBatches,omitempty"`
	FsyncsSaved   int64 `json:"fsyncsSaved,omitempty"`
}

// supportRequest is the JSON body of POST /v1/databases/{name}/support.
type supportRequest struct {
	Pattern []string `json:"pattern"`
	// Instances attaches the leftmost support set.
	Instances bool `json:"instances"`
	// PerSequence attaches the per-sequence support vector (the paper's
	// Section V classification features).
	PerSequence bool `json:"perSequence"`
}

type supportResponse struct {
	Database           string           `json:"database"`
	SnapshotGeneration uint64           `json:"snapshotGeneration"`
	Pattern            []string         `json:"pattern"`
	Support            int              `json:"support"`
	Instances          []repro.Instance `json:"instances,omitempty"`
	PerSequence        []int            `json:"perSequence,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}
