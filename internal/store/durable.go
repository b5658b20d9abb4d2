package store

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/seq"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Durable operation: a store opened with Open (or Create) is backed by a
// directory holding at most a handful of checkpoint segments and WAL
// files (their names and the chain rule are in layout.go).
//
// Every Append encodes its batch and writes it to the WAL (fsynced per
// the configured policy) BEFORE the in-memory snapshot is published, so
// an acknowledged append is always reconstructible. Recovery is "latest
// segment + WAL tail replay": Open loads the newest valid checkpoint and
// re-applies the WAL chain on top, arriving at exactly the generation
// the store had when it went down (minus, under fsync policies weaker
// than always, appends whose frames never reached the disk — those were
// durably acknowledged only by policy, and the WAL's CRC framing
// guarantees replay stops cleanly rather than resurrecting torn data).
//
// A checkpoint compacts the WAL into a fresh segment: rotate to a new
// (empty) WAL based at the current generation, atomically write the
// segment, then delete the files both supersede. A crash at any point in
// that sequence recovers: the WAL chain is replayed base-to-tip, and
// stale files are swept by the next successful checkpoint.

// DefaultCheckpointWALBytes is the WAL size that triggers an automatic
// checkpoint when Options.CheckpointWALBytes is zero.
const DefaultCheckpointWALBytes = 4 << 20

// durableState is the persistence arm of a Store. All fields are guarded
// by the Store's mu.
type durableState struct {
	dir     string
	fsys    vfs.FS
	wal     *wal.Log
	walBase uint64 // generation the current WAL applies on top of
	segGen  uint64 // newest durable checkpoint; 0 = none (empty gen-1 base)
	walOpt  wal.Options
	// checkpointBytes is the auto-checkpoint threshold; < 0 disables.
	checkpointBytes int64
	// checkpointErr is the last automatic-checkpoint failure, surfaced in
	// DurabilityInfo and cleared by the next success. An auto-checkpoint
	// failure does not fail the append that triggered it: the data is
	// already durable in the WAL, the WAL just keeps growing — and the
	// prober retries the checkpoint in the background (degraded.go).
	checkpointErr error
	// degraded is the root cause that flipped the store read-only, nil
	// while healthy. While set, Append rejects fast with ErrDegraded and
	// the prober goroutine retries recovery; see degraded.go.
	degraded error
	// probeBackoff/probeBackoffMax tune the prober's retry delays.
	probeBackoff    time.Duration
	probeBackoffMax time.Duration
	// proberStop/proberDone are the live prober's shutdown handshake;
	// nil when no prober runs.
	proberStop chan struct{}
	proberDone chan struct{}

	// Commit pipeline state (commit.go). inFlight counts batches between
	// WAL commit admission and spine apply; cond is broadcast whenever the
	// spine generation advances, inFlight drops, or quiescing/closed flip,
	// and is what commit waiters, checkpoint quiescing, and Close's drain
	// block on. quiescing blocks new admissions while a checkpoint drains
	// in-flight commits (a rotation changes walBase, which would
	// invalidate their apply targets).
	cond      *sync.Cond
	inFlight  int
	quiescing bool
	closed    bool
	// Commit statistics carried across WAL rotations: the live WAL's
	// counters reset on every checkpoint, so the totals a monitoring
	// scrape sees are acc + live.
	accCommit wal.CommitStats
}

// walOptions maps store Options to the WAL's.
func (o Options) walOptions() wal.Options {
	return wal.Options{Policy: o.SyncPolicy, Interval: o.SyncInterval, FS: o.FS}
}

// effectiveCheckpointBytes resolves the auto-checkpoint threshold.
func (o Options) effectiveCheckpointBytes() int64 {
	switch {
	case o.CheckpointWALBytes < 0:
		return -1
	case o.CheckpointWALBytes == 0:
		return DefaultCheckpointWALBytes
	default:
		return o.CheckpointWALBytes
	}
}

// Open opens (creating if needed) a durable store in dir, recovering its
// state as the newest valid checkpoint segment plus the replayed WAL
// tail. Already-built indexes are NOT recovered — loaded snapshots
// rebuild them lazily on first use, exactly like a fresh FromDB store.
func Open(dir string, opt Options) (*Store, error) {
	fsys := vfs.Or(opt.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	l, err := listDir(fsys, dir)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return recoverDir(dir, l, opt, true)
}

// Create initializes a durable store in dir seeded with db as generation
// 1, replacing any previous store contents (the upload-replace shape).
// The seed is checkpointed to a segment immediately, so the database is
// durable the moment Create returns. The store takes ownership of db.
//
// Failure ordering protects the previous database: resetDir writes and
// fsyncs the new seed segment before any old file is touched, so an
// encoding or disk-space failure leaves the old store exactly as it was.
// The caller must ensure no live store is still writing to dir (a
// concurrent owner's checkpoint could interleave with the sweep).
func Create(dir string, db *seq.DB, opt Options) (*Store, error) {
	fsys := vfs.Or(opt.FS)
	if err := resetDir(fsys, dir, 1, encodeSegment(1, db)); err != nil {
		return nil, fmt.Errorf("store: create %s: %w", dir, err)
	}
	w, err := wal.Open(filepath.Join(dir, walFileName(1)), opt.walOptions(), nil)
	if err != nil {
		return nil, err
	}
	if err := syncDir(fsys, dir); err != nil {
		w.Close()
		return nil, err
	}
	st := seedStore(db, opt, 1)
	st.dur = newDurableState(st, dir, opt)
	st.dur.wal = w
	st.dur.walBase = 1
	st.dur.segGen = 1
	return st, nil
}

// newDurableState builds st's persistence arm from the options; the
// caller fills in the WAL handle and generations.
func newDurableState(st *Store, dir string, opt Options) *durableState {
	return &durableState{
		dir:             dir,
		fsys:            vfs.Or(opt.FS),
		walOpt:          opt.walOptions(),
		checkpointBytes: opt.effectiveCheckpointBytes(),
		probeBackoff:    opt.ProbeBackoff,
		probeBackoffMax: opt.ProbeBackoffMax,
		cond:            sync.NewCond(&st.mu),
	}
}

// recoverDir rebuilds the in-memory store from the listing l of dir:
// the newest segment that loads, with the WAL chain replayed on top.
// With live set it also opens the WAL new appends continue into — the
// last chain file — and Open replays that file through the handle it
// keeps, so the live WAL is read once. Without live it only reads
// (Inspect's dry run) and leaves st.dur.wal nil.
func recoverDir(dir string, l *listing, opt Options, live bool) (*Store, error) {
	fsys := vfs.Or(opt.FS)
	// Base state: the newest segment that loads cleanly. Segments are
	// written atomically, so a corrupt one means external damage; fall
	// back to an older checkpoint when one exists rather than refusing to
	// start (the WAL chain from that older base, when still present,
	// replays forward).
	db := seq.NewDB()
	var baseGen, segGen uint64 = 1, 0
	var segErrs []error
	for i := len(l.segments) - 1; i >= 0; i-- {
		gen := l.segments[i].gen
		g, loaded, err := readSegment(fsys, filepath.Join(dir, segmentFileName(gen)))
		if err != nil {
			segErrs = append(segErrs, err)
			continue
		}
		if g != gen {
			segErrs = append(segErrs, fmt.Errorf("store: segment %s holds generation %d", segmentFileName(gen), g))
			continue
		}
		db, baseGen, segGen = loaded, gen, gen
		break
	}
	if segGen == 0 && len(l.segments) > 0 {
		return nil, fmt.Errorf("store: open %s: no loadable checkpoint segment: %w", dir, errors.Join(segErrs...))
	}

	st := seedStore(db, opt, baseGen)
	st.dur = newDurableState(st, dir, opt)
	st.dur.segGen = segGen
	apply := func(payload []byte) error {
		records, upsert, err := decodeBatch(payload)
		if err != nil {
			return err
		}
		st.applyLocked(records, upsert)
		return nil
	}

	// Replay the WAL chain from the checkpoint: each file must start
	// exactly at the generation the previous one reached (listing.next).
	// WALs based below the checkpoint are stale remains of an interrupted
	// compaction — already folded into the segment — and are swept by the
	// next checkpoint.
	liveBase := baseGen
	var w *wal.Log
	for after := baseGen - 1; ; {
		base, ok, err := l.next(fsys, dir, after, st.cur.Load().gen)
		if err != nil {
			return nil, fmt.Errorf("store: open %s: %w", dir, err)
		}
		if !ok {
			break
		}
		path := filepath.Join(dir, walFileName(base))
		if live && base == l.wals[len(l.wals)-1].gen {
			w, err = wal.Open(path, opt.walOptions(), apply)
		} else {
			_, _, _, err = wal.ScanFS(fsys, path, apply)
		}
		if err != nil {
			return nil, fmt.Errorf("store: open %s: replay %s: %w", dir, walFileName(base), err)
		}
		after, liveBase = base, base
	}
	if !live {
		return st, nil
	}
	if w == nil {
		// No WAL yet, or the last one was an empty out-of-chain file:
		// appends continue into the last chain file (created if needed).
		var err error
		if w, err = wal.Open(filepath.Join(dir, walFileName(liveBase)), opt.walOptions(), nil); err != nil {
			return nil, err
		}
	}
	st.dur.wal, st.dur.walBase = w, liveBase
	return st, nil
}

// absorbCommitStats folds the live WAL's commit counters into the
// running totals before the handle is replaced (checkpoint rotation,
// degraded-mode heal). Called under mu.
func (d *durableState) absorbCommitStats() {
	s := d.wal.CommitStats()
	d.accCommit.Batches += s.Batches
	d.accCommit.Records += s.Records
	d.accCommit.Syncs += s.Syncs
}

// Checkpoint compacts the WAL into a fresh segment: the current
// generation is serialized as segment-<gen>.seg, new appends go to a WAL
// based at <gen>, and superseded files are deleted. A no-op when the
// store is in-memory or nothing was appended since the last checkpoint.
func (st *Store) Checkpoint() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur == nil {
		return nil
	}
	err := st.checkpointQuiesced(false)
	if err != nil && !errors.Is(err, wal.ErrClosed) {
		// The WAL still holds everything; have the prober retry the
		// compaction in the background.
		st.startProberLocked()
	}
	return err
}

// needsCheckpoint reports whether the live WAL crossed the
// auto-checkpoint threshold on a healthy store. Caller holds st.mu.
func (d *durableState) needsCheckpoint() bool {
	return d.degraded == nil && d.checkpointBytes >= 0 && d.wal.Size() >= d.checkpointBytes
}

// checkpointQuiesced runs a checkpoint with the commit pipeline drained.
// The rotation inside checkpointLocked changes walBase, which would
// invalidate the apply targets of commits already in flight — so new
// admissions are blocked (quiescing), in-flight batches drain, and only
// then does the checkpoint run. With auto set it is the auto-checkpoint:
// several committers can cross the threshold together, and whoever
// drains after the first finds the fresh WAL and skips. Caller holds
// st.mu; the waits release it.
func (st *Store) checkpointQuiesced(auto bool) error {
	d := st.dur
	for d.quiescing && !d.closed {
		d.cond.Wait()
	}
	if d.closed {
		return wal.ErrClosed
	}
	d.quiescing = true
	for d.inFlight > 0 {
		d.cond.Wait()
	}
	var err error
	switch {
	case d.closed:
		// Close slipped in while we drained; it owns the WAL now.
		err = wal.ErrClosed
	case auto && !d.needsCheckpoint():
	default:
		err = st.checkpointLocked()
	}
	d.quiescing = false
	d.cond.Broadcast()
	return err
}

// checkpointLocked runs a checkpoint under mu.
func (st *Store) checkpointLocked() error {
	d := st.dur
	gen := st.cur.Load().gen
	if gen == d.segGen {
		// Nothing appended since the last checkpoint (or since Create's
		// seed segment): the segment is current, the WAL is empty. A
		// stale failure from a previous attempt is moot now.
		d.checkpointErr = nil
		return nil
	}

	// 1. Rotate: new appends (none can run; we hold mu) will go to a WAL
	// based at gen. If a previous checkpoint attempt already rotated but
	// failed to write the segment, the live WAL is already based at gen —
	// don't rotate onto ourselves.
	if d.walBase != gen {
		nw, err := wal.Open(filepath.Join(d.dir, walFileName(gen)), d.walOpt, nil)
		if err != nil {
			d.checkpointErr = err
			return err
		}
		if err := syncDir(d.fsys, d.dir); err != nil {
			nw.Close()
			d.checkpointErr = err
			return err
		}
		// The rotated-away WAL's commit counters reset with the new file;
		// fold them into the running totals monitoring reads.
		d.absorbCommitStats()
		if err := d.wal.Close(); err != nil {
			// The old WAL's tail could not be made durable; keep appending
			// to the new WAL regardless (its chain position is valid), but
			// report the failure: under fsync=always this cannot happen
			// (every append already synced), under weaker policies it means
			// a machine crash right now could lose the tail — which is the
			// weaker policies' documented contract anyway.
			d.checkpointErr = err
			d.wal, d.walBase = nw, gen
			return err
		}
		d.wal, d.walBase = nw, gen
	}

	// 2. Write the checkpoint for gen. The spine slices are exactly the
	// current snapshot's sealed views, so encoding under mu sees one
	// consistent generation.
	if err := writeSegment(d.fsys, d.dir, gen, encodeSegment(gen, st.cur.Load().db)); err != nil {
		d.checkpointErr = err
		return err
	}
	d.segGen = gen
	d.checkpointErr = nil

	// 3. Sweep superseded files: all segments but the new one, all WALs
	// based before it, and any orphaned segment temp files. Best-effort —
	// a leftover is re-swept by the next checkpoint and ignored by
	// recovery.
	if l, err := listDir(d.fsys, d.dir); err == nil {
		_ = l.sweep(d.fsys, d.dir, gen)
	}
	return nil
}

// Sync flushes unsynced WAL appends to stable storage. Under
// SyncPolicy=always every append is already durable and Sync is a no-op;
// under the weaker policies it is the explicit durability barrier. Nil
// for in-memory stores.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur == nil {
		return nil
	}
	return st.dur.wal.Sync()
}

// Close flushes and fsyncs the WAL and releases the store's files. The
// in-memory snapshots stay usable (they are immutable), but subsequent
// Append calls fail. Nil and a no-op for in-memory stores; safe to call
// twice.
func (st *Store) Close() error {
	st.mu.Lock()
	if st.dur == nil {
		st.mu.Unlock()
		return nil
	}
	// Stop admitting commits, then drain the pipeline: batches whose
	// records are already durable get to publish their snapshots before
	// the WAL handle goes away.
	st.dur.closed = true
	st.dur.cond.Broadcast()
	for st.dur.inFlight > 0 {
		st.dur.cond.Wait()
	}
	if stop := st.dur.proberStop; stop != nil {
		done := st.dur.proberDone
		st.dur.proberStop, st.dur.proberDone = nil, nil
		// The prober may be blocked on st.mu; release it for the handoff.
		st.mu.Unlock()
		close(stop)
		<-done
		st.mu.Lock()
	}
	defer st.mu.Unlock()
	return st.dur.wal.Close()
}

// DurabilityInfo reports the persistence state of the store.
type DurabilityInfo struct {
	// Durable is false for in-memory stores; every other field except
	// Role is then zero.
	Durable bool
	// Role is the store's replication role: RolePrimary or RoleFollower.
	Role string
	// Dir is the storage directory.
	Dir string
	// SyncPolicy is the configured WAL fsync policy.
	SyncPolicy wal.SyncPolicy
	// Generation is the current snapshot generation.
	Generation uint64
	// SegmentGeneration is the generation of the newest durable
	// checkpoint; recovery replays the WAL from here. 0 = no checkpoint
	// yet (the store recovers from an empty base).
	SegmentGeneration uint64
	// WALBytes and WALRecords size the live write-ahead tail.
	WALBytes   int64
	WALRecords int
	// CheckpointError is the last automatic-checkpoint failure, or ""
	// (cleared by the next successful checkpoint). The WAL keeps the data
	// safe meanwhile; it just cannot be compacted.
	CheckpointError string
	// WALError is the live WAL's sticky error, or "" while it is
	// healthy. Set, it means appends cannot become durable until the log
	// is healed.
	WALError string
	// Degraded reports read-only degraded mode: appends are rejected
	// with ErrDegraded while mining continues on the last snapshot, and
	// the background prober retries recovery. DegradedError is the root
	// cause.
	Degraded      bool
	DegradedError string
	// CommitBatches/CommitRecords count WAL commit activity across the
	// store's lifetime (accumulated over WAL rotations): how many batches
	// were written and how many records they carried. Fsyncs counts every
	// fsync the WALs issued. Under SyncPolicy=always every batch is one
	// fsync, so CommitRecords - CommitBatches is the number of fsyncs
	// group commit saved versus one-fsync-per-append; under the weaker
	// policies every batch is one record.
	CommitBatches int64
	CommitRecords int64
	Fsyncs        int64
}

// Durability returns the persistence state of the store.
func (st *Store) Durability() DurabilityInfo {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.dur == nil {
		return DurabilityInfo{Role: st.roleLocked()}
	}
	live := st.dur.wal.CommitStats()
	info := DurabilityInfo{
		Durable:           true,
		Role:              st.roleLocked(),
		Dir:               st.dur.dir,
		SyncPolicy:        st.dur.walOpt.Policy,
		Generation:        st.cur.Load().gen,
		SegmentGeneration: st.dur.segGen,
		WALBytes:          st.dur.wal.Size(),
		WALRecords:        st.dur.wal.Records(),
		CommitBatches:     st.dur.accCommit.Batches + live.Batches,
		CommitRecords:     st.dur.accCommit.Records + live.Records,
		Fsyncs:            st.dur.accCommit.Syncs + live.Syncs,
	}
	if st.dur.checkpointErr != nil {
		info.CheckpointError = st.dur.checkpointErr.Error()
	}
	if werr := st.dur.wal.Err(); werr != nil {
		info.WALError = werr.Error()
	}
	if st.dur.degraded != nil {
		info.Degraded = true
		info.DegradedError = st.dur.degraded.Error()
	}
	return info
}
