// Package repro is a Go implementation of repetitive gapped subsequence
// mining, reproducing Ding, Lo, Han, Khoo: "Efficient Mining of Closed
// Repetitive Gapped Subsequences from a Sequence Database" (ICDE 2009).
//
// Given a database of event sequences, the miner finds every pattern
// (gapped subsequence) whose repetitive support — the maximum number of
// pairwise non-overlapping occurrences, counted across AND within
// sequences — reaches a user threshold, or only the closed such patterns
// (those with no super-pattern of equal support). The algorithms are the
// paper's GSgrow and CloGSgrow, built on instance growth over an inverted
// event index, with closure checking and landmark border pruning for the
// closed variant.
//
// Quick start:
//
//	db := repro.NewDatabase()
//	db.Add("S1", []string{"A", "A", "B", "C", "D", "A", "B", "B"})
//	db.Add("S2", []string{"A", "B", "C", "D"})
//	res, err := db.MineClosed(repro.Options{MinSupport: 2})
//	if err != nil { ... }
//	for _, p := range res.Patterns {
//		fmt.Println(p.Events, p.Support)
//	}
//
// Options is the one mining query: its fields select the threshold
// (MinSupport) or a best-first top-k search (TopK), closed patterns
// (Closed), the occurrence semantics and their parameters, and run-level
// limits. Options.Validate holds every rule on a query,
// Options.Canonical is its result-cache key and Options.Algorithm names
// what it runs; the HTTP service and the gsgrow CLI are spellings of the
// same value and reject exactly what Validate rejects.
//
// Long-running or interactive callers can bound and observe mining runs:
// Options.Ctx cancels a run in flight (the DFS polls the context and
// returns the patterns found so far with Result.Truncated set),
// Options.OnPattern streams patterns as they are emitted, and
// Options.Workers fans the search out over a worker pool with output
// identical to the sequential run.
//
// # Occurrence semantics
//
// What counts as one occurrence of a pattern — and therefore which
// patterns a run returns — is a pluggable dimension of the same API,
// selected by Options.Semantics (and spelled identically in the HTTP
// service's "semantics" request field and the CLI's -semantics flag):
//
//   - SemanticsRepetitive (the zero value): the paper's repetitive
//     support, the maximum number of pairwise non-overlapping instances
//     across and within sequences. The only mode with a closure theory
//     (Options.Closed) and a best-first top-k search (Options.TopK).
//   - SemanticsNonOverlapping: disjoint-window support — each counted
//     occurrence's whole window must end before the next begins. Greedy
//     earliest-end matching is provably optimal here (interval
//     scheduling), so support stays exact and anti-monotone.
//   - SemanticsCompressed: CRGSgrow's δ-compressed representatives. The
//     run mines the closed set internally and returns a greedy minimal
//     subset of representatives such that every closed pattern P has a
//     representative R with P ⊑ R and sup(R) ≥ (1−δ)·sup(P).
//     Options.CompressDelta sets δ (0 means the 0.1 default);
//     Options.MaxPatterns caps the representative list.
//   - SemanticsGapped: gap-constrained mining — Options.MinGap and
//     Options.MaxGap bound the gap between consecutive pattern events,
//     and per-sequence support is a max-flow computation. It runs on the
//     same kernel and scheduler as the other modes (so Workers applies),
//     without instance collection or closed mode.
//
// Invalid combinations (closed × nonoverlap, top-k × anything
// non-repetitive, gap bounds without SemanticsGapped, δ outside [0,1),
// …) fail fast with errors that satisfy errors.Is against the package's
// sentinel taxonomy: ErrUnknownSemantics, ErrInvalidOptions,
// ErrUnknownDatabase, ErrUnknownFormat, ErrStorage. ParseSemantics maps
// the canonical wire/CLI strings to the enum.
//
// # Writing a new semantics strategy
//
// Internally each mode is a core.Semantics strategy
// (internal/core/semantics.go) plugged into one shared DFS kernel. A
// strategy answers three questions: how a pattern's compressed instance
// set grows by one event (Grow/Singleton), what support that set
// denotes (Support — it must be anti-monotone under pattern extension,
// or pruning is unsound and results silently incomplete), and how the
// run finishes (SearchOptions to adjust the traversal, Finalize to
// post-process results, as the compressed mode does for set cover). A
// nil strategy, SemanticsRepetitive, and SemanticsCompressed all run
// the default instance-growth kernel unchanged — the hot path stays
// allocation-free and bit-compatible — while a strategy like
// nonoverlap only overrides the per-node support computation. New
// strategies get parallelism for free (the scheduler is
// strategy-agnostic), must stay import-clean of server/cli/store
// (enforced by internal/archtest), and should ship with an independent
// brute-force oracle in internal/verify plus fixture parity sweeps, as
// the shipped modes do.
//
// # Snapshots and live appends
//
// A Database is not static: it is a handle over a snapshot store
// (internal/store). Every mutation — Add, or a batched Append — seals the
// new state as an immutable, generation-numbered Snapshot, and every
// query or mining run executes against exactly one snapshot. That makes
// mining concurrently with appends safe by construction: there is no
// prepare step, no locking discipline, and no torn reads — a miner simply
// keeps the generation it started with.
//
//	snap := db.Snapshot()             // pin one generation
//	res, _ := snap.MineClosed(opt)    // consistent no matter what appends
//	db.Append([]repro.Record{         // upsert: "S1" grows, others are new
//		{Label: "S1", Events: []string{"A", "B"}},
//		{Label: "S9", Events: []string{"B", "C"}},
//	})
//
// Appends never re-derive old state: the inverted index is extended
// incrementally — per-sequence tables of untouched sequences are shared
// with the parent snapshot, only sequences the batch touches are
// re-tabulated, the event dictionary is cloned copy-on-write only when
// new event names appear, and statistics are maintained incrementally.
// The per-append cost is the batch's events plus O(N) slice-header
// bookkeeping (sequence contents are never re-read), which is orders of
// magnitude cheaper than the full index rebuild it replaces.
// Snapshot.Generation identifies database contents, which is what the
// HTTP service keys its result cache by.
//
// # Durable databases
//
// NewDatabase and Load build in-memory databases: nothing touches disk,
// and that remains the zero-configuration default. Open (recover or
// start a database in a directory) and Create (seed a directory from a
// data stream, replacing its previous contents) return databases with
// the same API plus durability: every Append is encoded into a
// CRC32C-framed write-ahead log before it is acknowledged, checkpoints
// compact the log into an immutable segment file (automatically past
// OpenOptions.CheckpointWALBytes, or explicitly via Compact), and Open
// recovers state as latest segment + WAL tail replay. The lifecycle is
//
//	db, err := repro.Open(dir, repro.OpenOptions{})  // recover (or init)
//	snap, err := db.Append(batch)                    // logged, then published
//	err = db.Sync()                                  // durability barrier (weak policies)
//	err = db.Close()                                 // flush + fsync + release
//
// OpenOptions.Sync selects when the log is fsynced: SyncAlways (the
// default) makes every acknowledged append survive even a machine
// crash; SyncInterval and SyncNever trade a bounded loss window for
// throughput — acknowledged-then-lost writes are impossible only under
// SyncAlways. Torn frames from a crash mid-write are detected by
// checksums and dropped cleanly on recovery, never replayed as partial
// batches. Snapshots recovered from disk rebuild their indexes lazily
// on first use, exactly like freshly loaded databases, and
// Database.Persistence reports the recovery state (checkpointed
// generation, WAL size, sync policy) for monitoring. The directory's
// layout — file names, the WAL chain rule, what a checkpoint sweeps and
// what Open reads — is described under "Storage layout" in README.md.
//
// Under SyncAlways, concurrent Appends are group-committed: records
// arriving within one commit window are packed into a single
// write-ahead-log write and flushed with a single fsync, so acknowledged
// throughput scales with offered load instead of being capped at one
// disk flush per record. The contract per record is unchanged — a nil
// error from Append still means that exact record is on stable storage —
// and a lone appender never waits out the window, so single-client
// latency stays within one commit window of a lone fsync. The window is
// fixed: a batch closes at 64 records or 1ms, whichever comes first.
// Database.Persistence reports CommitBatches, CommitRecords and their
// difference FsyncsSaved, so the achieved coalescing is observable in
// production (the HTTP persistence block is that value).
//
// # Degraded mode and self-healing
//
// A durable database survives its disk failing. When an append hits an
// I/O error — ENOSPC, EIO, a failed fsync — the batch is rejected (it
// was never acknowledged, so the durability contract is intact) and the
// database flips to read-only degraded mode: queries and mining keep
// serving the last published snapshot, while further Appends fail fast
// with an error wrapping ErrDegraded and carrying the root errno. A
// background prober then retries recovery with jittered exponential
// backoff (OpenOptions.ProbeBackoff doubling up to ProbeBackoffMax;
// defaults 100ms and 30s): it first proves the disk writes again with a
// scratch-file fsync, then reopens the write-ahead log, truncating any
// complete-but-unacknowledged frame a failed fsync may have left — a
// rejected batch never resurrects — and flips the database back to
// writable. No restart, no operator call. A failed checkpoint is the
// milder cousin: appends stay durable through the WAL (no degradation),
// the log just stops compacting until the prober lands the checkpoint;
// Persistence.CheckpointError, .WALError, .Degraded and .DegradedError
// expose all of it for monitoring, and the HTTP service maps the same
// state to /readyz and per-database persistence blocks.
//
// # Replication and failover
//
// A durable database can be replicated to read-only followers.
// OpenReplica(upstream, name, dir, opts) bootstraps a local copy from the
// primary's checkpoint segment, then tails the primary's write-ahead log
// over HTTP, applying acknowledged records in order through the same
// codecs recovery uses — so a follower's on-disk state is always a valid
// database directory, crash-safe at every step. The returned
// Replica.Database serves the full read and mining API from the
// follower's own snapshots; writes fail with an error wrapping
// ErrNotPrimary (the HTTP service maps it to 409 with the primary's
// address). The tailer reconnects with jittered exponential backoff,
// detects divergence — a primary that was re-uploaded, restored, or
// replaced mints a new lineage epoch — and re-bootstraps itself; a plain
// restart resumes from the local WAL position without re-downloading
// anything. Replica.Status reports role, lag in records/bytes/time,
// connection state, and bootstrap count; Replica.Promote (or `gsgrow
// promote` on a stopped follower's directory, or the service's POST
// /v1/replication/{db}/promote) ends replication and flips the same
// handle writable for failover. Run a whole follower node with
// `reprod -replicate-from http://primary:8372` — it mirrors every
// database the primary hosts and gates its /readyz on configurable
// staleness bounds. See the README's "Replication & failover" section
// for the operational picture.
//
// # Performance
//
// The mining core is allocation-free in steady state: support sets,
// candidate lists and closure-check chains are recycled through
// per-miner arenas, and refuted closure-check chains are memoized along
// the DFS path. The paper's next(S, e, lowest) primitive is answered in
// O(1) from per-sequence successor tables (FastNext) built lazily under
// a memory budget; sequences whose table would not fit fall back to the
// O(log L) binary search individually — see the README's
// performance-tuning section for the measured trade-offs.
//
// Following the remark under Theorem 6, a DFS node grows only candidate
// events (events occurring after some instance of its support set), and
// of those only events that pass a per-sequence support bound. Within a
// sequence Si, the instances of P∘e extend pairwise distinct instances of
// P and end at pairwise distinct positions of e (non-overlapping
// instances never share a landmark at the same pattern index), so
// sup_i(P∘e) <= min(sup_i(P), count_i(e)); repetitive support sums over
// sequences, hence sup(P∘e) <= Σi min(sup_i(P), count_i(e)). An event
// whose bound is below the threshold cannot give a frequent child, and
// its instance growth is skipped. Closure checking reuses the bounded
// lists soundly: an equal-support extension of a frequent pattern has a
// frequent prefix ending in the inserted event, whose bound is therefore
// at least the threshold. The bound applies in the repetitive, closed,
// compressed and nonoverlap modes, which grow the same leftmost sets, but
// not under gapped, whose gap-valid end sets can outnumber their parent's
// instances; top-k uses it as each child's support upper bound. It has no
// switch and never changes output: on Quest D1C20N1S20 at min_sup 10 it
// cuts an all-patterns mine from 149,298 instance growths to 2,441.
//
// # Parallel mining
//
// Options.Workers > 1 runs the mining DFS on a work-stealing scheduler:
// each worker owns a deque of stealable subtree tasks, publishes the
// shallowest untaken branches of its recursion when peers go idle, and
// steals from busy workers when its own deque runs dry — so deep,
// skewed search spaces parallelize, not just wide ones. Every emission
// carries a (seed, branch-path) order key and the merge reassembles the
// sequential emission sequence from keyed blocks, which makes the
// result — patterns, supports, order, and the first-MaxPatterns prefix
// under a budget — identical to the sequential run for every worker
// count and steal timing. Workers under Options.TopK parallelizes the
// best-first top-k search the same way: sharded frontiers coordinated
// through the current k-th best support, byte-identical results.
//
// Top-k memory is bounded by the peak live frontier, not by the number
// of nodes ever explored: frontier entries are parent-pointer nodes in
// a recycled block arena, a child's instance set is only materialized
// when the child is popped, and children whose support upper bound
// cannot beat the current k-th best are discarded before allocation.
// Result.TopKFrontierPeak and TopKArenaBytes report the high-water
// numbers per run.
//
// Workers helps when the mine is substantial (milliseconds and up) and
// the machine has idle cores; it only adds scheduling overhead on tiny
// databases or at very high support thresholds (a handful of shallow
// patterns). Requested counts above the host's usable CPUs are clamped
// rather than spawned — Result.WorkersRequested and WorkersEffective
// report both sides of the clamp. The sequential path (Workers <= 1)
// runs the same single-threaded miner; its only scheduler cost is
// per-node candidate-frame bookkeeping, which benchmarks faster than
// the pre-scheduler baseline.
//
// The same capabilities are exposed over HTTP by the mining service
// (internal/server, started with `gsgrow serve` or cmd/reprod): named
// databases are uploaded once, grown in place with NDJSON append streams
// (POST /v1/databases/{name}/append, or `gsgrow append` from the command
// line), and mined concurrently by many clients, with NDJSON streaming,
// client-disconnect cancellation, and an LRU result cache keyed by
// snapshot generation and canonical options — appending to one database
// invalidates exactly its own cache entries. Both commands share one
// flag list, and its durability flags (-fsync, -fsync-interval,
// -checkpoint-bytes) fill the same OpenOptions value a library caller
// passes to Open. The service's responses are this package's own types:
// Pattern and Instance are the mine and support payloads, and Stats,
// Persistence and ReplicaStatus the stats, persistence and replication
// objects of its database and readiness reports, so their field tags
// are the HTTP schema.
//
// The subpackages under internal implement the substrate (sequence
// database, inverted index, generators, baselines, brute-force oracles,
// experiment harness); this package is the stable public surface.
package repro
