package repro

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/repl"
	"repro/internal/store"
)

// Database roles, as reported by Persistence.Role and ReplicaStatus.Role.
const (
	RolePrimary  = store.RolePrimary
	RoleFollower = store.RoleFollower
)

// ReplicaOptions configures OpenReplica. The zero value is a sensible
// follower: safe local durability defaults and the standard reconnect
// schedule.
type ReplicaOptions struct {
	// Open tunes the replica's local store (fsync policy, checkpoint
	// threshold); same meaning as for Open.
	Open OpenOptions
	// Backoff and BackoffMax tune the tailer's jittered exponential
	// reconnect schedule; zero selects the defaults (200ms, 15s).
	Backoff    time.Duration
	BackoffMax time.Duration
	// Logf, when set, receives replication progress lines (bootstraps,
	// resumes, re-bootstraps, promotion).
	Logf func(format string, args ...any)
}

// Replica is a read-only follower of a database served by a remote
// primary. It bootstraps from the primary's newest checkpoint segment,
// then tails the primary's write-ahead log and applies every batch to its
// own durable store, so Database() serves the same queries and mining
// operations as the primary — from local disk, at a bounded lag.
//
// A replica heals itself: connection loss is retried with jittered
// exponential backoff, and divergence (the primary's database was
// replaced, or the replica's position is no longer retained) is answered
// by discarding local state and bootstrapping again. Appends on the
// replica's Database fail with ErrNotPrimary until Promote.
type Replica struct {
	f  *repl.Follower
	db *Database
}

// OpenReplica opens (or resumes) a replica of database name on the
// primary at upstream (base URL, e.g. "http://primary:8372"), storing its
// local state in dir. An existing replica directory for the same upstream
// and database resumes from its local position — no network needed at
// open time; a fresh directory bootstraps from the primary's newest
// segment, which requires the primary to be reachable.
//
// The returned replica is already tailing. Close stops it.
func OpenReplica(upstream, name, dir string, opt ReplicaOptions) (*Replica, error) {
	r := &Replica{}
	cfg := repl.Config{
		Upstream:   upstream,
		DB:         name,
		Dir:        dir,
		Store:      opt.Open.internal(),
		Backoff:    opt.Backoff,
		BackoffMax: opt.BackoffMax,
		Logf:       opt.Logf,
		// A re-bootstrap rebuilt the local state on a fresh store; switch
		// the public handle over atomically. In-flight snapshots keep the
		// old store's immutable state.
		OnSwap: func(st *store.Store) { r.db.swapStore(st) },
	}
	f, err := repl.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("repro: replica %s: %w", dir, err)
	}
	st, err := f.Open()
	if err != nil {
		return nil, fmt.Errorf("repro: replica %s: %w", dir, errors.Join(ErrStorage, err))
	}
	r.f = f
	r.db = newDatabase(st)
	f.Run()
	return r, nil
}

// Database returns the replica's database handle. It serves every query
// and mining operation from the replica's local state; Append fails with
// ErrNotPrimary until Promote. The handle stays valid across
// re-bootstraps (it switches to the fresh state atomically) and after
// promotion.
func (r *Replica) Database() *Database { return r.db }

// ReplicaStatus is a point-in-time snapshot of a replica's replication
// state. It is also the "replication" object of the HTTP service's
// database and readiness reports; Database is not on the wire.
type ReplicaStatus struct {
	// Role is "follower", or "primary" after promotion.
	Role string `json:"role"`
	// Upstream and Database identify what is being replicated.
	Upstream string `json:"upstream,omitempty"`
	Database string `json:"-"`
	// Epoch is the primary lineage the local state was replicated from; it
	// changes when the primary's database is replaced wholesale.
	Epoch string `json:"epoch,omitempty"`
	// Connected reports whether the WAL tail stream is currently up.
	Connected bool `json:"connected"`
	// Generation is the last generation applied locally.
	Generation uint64 `json:"generation,omitempty"`
	// PrimaryGeneration is the primary's generation as of the last frame
	// received; LagRecords and LagBytes measure the distance to it.
	PrimaryGeneration uint64 `json:"primaryGeneration,omitempty"`
	LagRecords        uint64 `json:"lagRecords,omitempty"`
	LagBytes          uint64 `json:"lagBytes,omitempty"`
	// LastContact is when that frame arrived, in UTC (zero before the
	// first); LagSeconds is its age when the status was taken, which
	// bounds how stale the lag numbers themselves are.
	LastContact time.Time `json:"lastContact,omitzero"`
	LagSeconds  float64   `json:"lagSeconds,omitempty"`
	// Bootstraps counts full segment bootstraps (1 for a fresh replica;
	// more mean divergence was detected and healed).
	Bootstraps int `json:"bootstraps,omitempty"`
	// LastError is the most recent tail failure ("" while healthy).
	LastError string `json:"lastError,omitempty"`
}

// Status reports the replica's replication state.
func (r *Replica) Status() ReplicaStatus {
	s := r.f.Status()
	st := ReplicaStatus{
		Role:              s.Role,
		Upstream:          s.Upstream,
		Database:          s.Database,
		Epoch:             s.Epoch,
		Connected:         s.Connected,
		Generation:        s.Generation,
		PrimaryGeneration: s.PrimaryGeneration,
		LagRecords:        s.LagRecords,
		LagBytes:          s.LagBytes,
		Bootstraps:        s.Bootstraps,
		LastError:         s.LastError,
	}
	if !s.LastContact.IsZero() {
		st.LastContact = s.LastContact.UTC()
		st.LagSeconds = time.Since(s.LastContact).Seconds()
	}
	return st
}

// Promote ends replication and makes the replica's database a primary:
// the tailer stops, the local WAL tail is sealed, and the database starts
// accepting Appends. The directory then opens as an ordinary durable
// database. Promotion is one-way; the old primary, if it comes back, must
// not keep taking writes (fence it off operationally).
func (r *Replica) Promote() error {
	if err := r.f.Promote(); err != nil {
		return fmt.Errorf("repro: promote: %w", errors.Join(ErrStorage, err))
	}
	return nil
}

// Close stops replication and closes the local store. Snapshots already
// taken stay usable. After Promote, Close just closes the database.
func (r *Replica) Close() error { return r.f.Close() }
