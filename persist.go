package repro

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/seq"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// SyncPolicy selects when durable databases fsync the write-ahead log.
type SyncPolicy int

// The policies. Each is its internal/wal policy, which holds the name
// table.
const (
	// SyncAlways fsyncs every append before acknowledging it: an
	// acknowledged write can never be lost, even to a machine crash. The
	// cost is one fsync per append batch. This is the default.
	SyncAlways = SyncPolicy(wal.SyncAlways)
	// SyncInterval fsyncs in the background at OpenOptions.SyncInterval.
	// A machine crash can lose up to one interval of acknowledged
	// appends; a clean process exit (or crash that spares the OS) loses
	// nothing.
	SyncInterval = SyncPolicy(wal.SyncInterval)
	// SyncNever leaves write-back entirely to the OS. Fastest, and still
	// safe against process crashes, but a machine crash loses whatever
	// the kernel had not yet written.
	SyncNever = SyncPolicy(wal.SyncNever)
)

// String returns the flag/wire name of the policy ("always", "interval",
// "never").
func (p SyncPolicy) String() string { return p.internal().String() }

// MarshalText encodes the policy as its name, the form the HTTP service
// reports it in.
func (p SyncPolicy) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText reads a policy name, as ParseSyncPolicy does, so clients
// can decode the service's reports into Persistence.
func (p *SyncPolicy) UnmarshalText(text []byte) (err error) {
	*p, err = ParseSyncPolicy(string(text))
	return err
}

// ParseSyncPolicy maps a flag value ("always", "interval", "never") to a
// SyncPolicy. Unknown names return an error wrapping ErrInvalidOptions.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	wp, err := wal.ParsePolicy(s)
	if err != nil {
		return 0, fmt.Errorf("repro: %w: %v", ErrInvalidOptions, err)
	}
	return SyncPolicy(wp), nil
}

// internal is the wal policy p selects. A value outside the three
// policies selects SyncAlways, the safe default (the log would otherwise
// read it as "never fsync").
func (p SyncPolicy) internal() wal.SyncPolicy {
	if p < SyncAlways || p > SyncNever {
		return wal.SyncAlways
	}
	return wal.SyncPolicy(p)
}

// OpenOptions configures a durable database. The zero value is the safe
// default: fsync on every append, automatic checkpoints at the default
// WAL size.
type OpenOptions struct {
	// Sync is the WAL fsync policy. The zero value is SyncAlways.
	Sync SyncPolicy
	// SyncInterval is the background fsync cadence under SyncInterval;
	// 0 selects a 100ms default.
	SyncInterval time.Duration
	// CheckpointWALBytes triggers an automatic checkpoint (WAL compacted
	// into a fresh segment) when the WAL exceeds this size. 0 selects a
	// 4 MiB default; negative disables automatic checkpoints, leaving
	// compaction to explicit Compact calls.
	CheckpointWALBytes int64
	// ProbeBackoff and ProbeBackoffMax tune the degraded-mode recovery
	// prober: the first retry delay and the exponential-backoff cap.
	// Zero selects the defaults (100ms and 30s).
	ProbeBackoff    time.Duration
	ProbeBackoffMax time.Duration
	// FS overrides the filesystem the database performs its I/O through.
	// It is a module-internal fault-injection hook (the type lives in an
	// internal package): external callers leave it nil, which selects
	// the real OS filesystem.
	FS vfs.FS
}

func (o OpenOptions) internal() store.Options {
	return store.Options{
		SyncPolicy:         o.Sync.internal(),
		SyncInterval:       o.SyncInterval,
		CheckpointWALBytes: o.CheckpointWALBytes,
		ProbeBackoff:       o.ProbeBackoff,
		ProbeBackoffMax:    o.ProbeBackoffMax,
		FS:                 o.FS,
	}
}

// Open opens (creating if needed) a durable database stored in dir,
// recovering any previous state: the newest checkpoint segment is loaded
// and the write-ahead tail is replayed on top, so every append
// acknowledged under SyncAlways — and every append at all, if the
// machine did not crash — is present. Torn tails from a crash mid-write
// are detected by checksums and dropped cleanly.
//
// The returned database behaves exactly like an in-memory one (appends
// publish immutable snapshots, mining runs against one generation), plus
// every Append is logged before it is acknowledged. Call Close when
// done; call Sync after batches of Adds under weaker sync policies.
func Open(dir string, opt OpenOptions) (*Database, error) {
	st, err := store.Open(dir, opt.internal())
	if err != nil {
		return nil, fmt.Errorf("repro: open %s: %w", dir, errors.Join(ErrStorage, err))
	}
	return newDatabase(st), nil
}

// Create initializes a durable database in dir from r in the given
// format, replacing whatever database the directory held before (the
// upload-replace shape of the service). The parsed contents are
// checkpointed to a segment before Create returns, so the database is
// durable immediately.
func Create(dir string, r io.Reader, format Format, opt OpenOptions) (*Database, error) {
	f, err := format.internal()
	if err != nil {
		return nil, err
	}
	db, err := seq.Parse(r, f)
	if err != nil {
		return nil, fmt.Errorf("repro: create %s (format %s): %w", dir, format, err)
	}
	st, err := store.Create(dir, db, opt.internal())
	if err != nil {
		return nil, fmt.Errorf("repro: create %s: %w", dir, errors.Join(ErrStorage, err))
	}
	return newDatabase(st), nil
}

// Persist writes the database's current snapshot into dir as a durable
// database — replacing whatever database the directory held — and
// returns the durable handle. The snapshot is checkpointed to a segment
// before Persist returns. The receiver stays a valid, independent
// in-memory database; services use Persist to validate an upload fully
// in memory before committing it over the previous generation's files.
func (d *Database) Persist(dir string, opt OpenOptions) (*Database, error) {
	st, err := store.Create(dir, d.store().Current().DB(), opt.internal())
	if err != nil {
		return nil, fmt.Errorf("repro: persist %s: %w", dir, errors.Join(ErrStorage, err))
	}
	return newDatabase(st), nil
}

// Sync flushes unsynced WAL appends to stable storage: the explicit
// durability barrier under SyncInterval/SyncNever (under SyncAlways
// every append is already durable and Sync is a no-op). Nil for
// in-memory databases.
func (d *Database) Sync() error { return d.store().Sync() }

// Close flushes and fsyncs the write-ahead log and releases the
// database's files. Snapshots already taken stay usable (they are
// immutable in memory); subsequent Appends fail. A no-op for in-memory
// databases; safe to call twice.
func (d *Database) Close() error { return d.store().Close() }

// Compact checkpoints the current generation into a fresh segment and
// truncates the write-ahead log, bounding recovery time. Appends trigger
// this automatically when the WAL exceeds
// OpenOptions.CheckpointWALBytes; Compact is the explicit form (e.g.
// before copying the directory for a backup). A no-op for in-memory
// databases.
func (d *Database) Compact() error { return d.store().Checkpoint() }

// Persistence describes how (and whether) a database is stored. It is
// also the "persistence" object of the HTTP service's database reports;
// the fields tagged "-" are not on the wire.
type Persistence struct {
	// Durable is false for in-memory databases; every other field except
	// Role is then zero.
	Durable bool `json:"-"`
	// Role is "primary" for ordinary databases and "follower" for a
	// replica tailing an upstream primary (see OpenReplica). Followers
	// reject Append with ErrNotPrimary until promoted.
	Role string `json:"role,omitempty"`
	// Dir is the storage directory.
	Dir string `json:"-"`
	// Sync is the configured fsync policy.
	Sync SyncPolicy `json:"syncPolicy"`
	// Generation is the current snapshot generation.
	Generation uint64 `json:"-"`
	// SegmentGeneration is the newest checkpointed generation; recovery
	// replays the WAL from there. 0 = no checkpoint yet.
	SegmentGeneration uint64 `json:"segmentGeneration"`
	// WALBytes and WALRecords size the write-ahead tail that recovery
	// would replay.
	WALBytes   int64 `json:"walBytes"`
	WALRecords int   `json:"walRecords"`
	// CheckpointError reports the last automatic-checkpoint failure (""
	// when healthy). Appends remain durable through the WAL while this is
	// set; the WAL just is not being compacted.
	CheckpointError string `json:"checkpointError,omitempty"`
	// WALError reports the write-ahead log's sticky error ("" while
	// healthy), with the root errno preserved in the text. Set, it means
	// appends cannot become durable until the log heals.
	WALError string `json:"walError,omitempty"`
	// Degraded reports read-only degraded mode: appends are rejected
	// with ErrDegraded while mining continues on the last snapshot, and
	// a background prober retries recovery until the disk heals.
	// DegradedError is the root cause.
	Degraded      bool   `json:"degraded,omitempty"`
	DegradedError string `json:"degradedError,omitempty"`
	// CommitBatches and CommitRecords count WAL commit activity over the
	// database's lifetime: batches written, and the records they carried.
	// Under SyncAlways each batch is one fsync, so
	// CommitRecords/CommitBatches is the achieved coalescing factor and
	// FsyncsSaved, CommitRecords - CommitBatches, the number of fsyncs
	// saved versus one-fsync-per-append; under the weaker policies each
	// batch is one record. Fsyncs counts every fsync issued on the
	// database's write-ahead logs.
	CommitBatches int64 `json:"commitBatches,omitempty"`
	CommitRecords int64 `json:"commitRecords,omitempty"`
	FsyncsSaved   int64 `json:"fsyncsSaved,omitempty"`
	Fsyncs        int64 `json:"-"`
}

// Persistence returns the database's durability state.
func (d *Database) Persistence() Persistence {
	info := d.store().Durability()
	return Persistence{
		Durable:           info.Durable,
		Role:              info.Role,
		Dir:               info.Dir,
		Sync:              SyncPolicy(info.SyncPolicy),
		Generation:        info.Generation,
		SegmentGeneration: info.SegmentGeneration,
		WALBytes:          info.WALBytes,
		WALRecords:        info.WALRecords,
		CheckpointError:   info.CheckpointError,
		WALError:          info.WALError,
		Degraded:          info.Degraded,
		DegradedError:     info.DegradedError,
		CommitBatches:     info.CommitBatches,
		CommitRecords:     info.CommitRecords,
		FsyncsSaved:       info.CommitRecords - info.CommitBatches,
		Fsyncs:            info.Fsyncs,
	}
}
