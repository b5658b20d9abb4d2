package store

import (
	"errors"
	"fmt"

	"repro/internal/wal"
)

// Replica support: a follower store holds the same durable format as a
// primary (segment + WAL chain) but its batches arrive over the
// replication feed instead of from local Append calls. The store stays
// the single owner of the on-disk format — the repl package moves bytes
// and positions, and everything that touches segments, WAL framing, or
// the spine goes through the entry points here and in layout.go
// (LatestSegment, ChainReader, ResetFromSegment).
//
// A follower applies each shipped batch through the primary's own write
// path (commit.go): log the payload to its own WAL first, then apply it
// to the spine. The follower's directory is therefore always a valid
// store directory — a crash at any byte recovers through the ordinary
// Open path, and promotion is nothing but "stop rejecting writes".

// Store roles, reported via DurabilityInfo.Role.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// ErrNotPrimary marks a write rejected because the store is a replication
// follower: its state is owned by the upstream primary, and a local write
// would fork the lineage.
var ErrNotPrimary = errors.New("store: not primary (read-only replica)")

// ErrReplicaGap marks a replicated batch that does not continue the
// follower's generation sequence — the feed and the local state have
// diverged, and the only safe continuation is a re-bootstrap.
var ErrReplicaGap = errors.New("store: replicated batch out of sequence")

// SetFollower flips the store into follower mode: Append rejects with
// ErrNotPrimary and batches are accepted only through ApplyReplicated.
func (st *Store) SetFollower() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.follower = true
}

// Role reports the store's replication role.
func (st *Store) Role() string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.roleLocked()
}

func (st *Store) roleLocked() string {
	if st.follower {
		return RoleFollower
	}
	return RolePrimary
}

// Promote atomically switches a follower store to the primary role: the
// WAL tail is sealed (fsynced) so everything applied so far is durable,
// and writes are accepted from here on. A no-op on a store that is
// already primary. The caller is responsible for having stopped the
// replication tailer first — a feed still applying batches after
// promotion would race local writes.
func (st *Store) Promote() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.follower {
		return nil
	}
	if st.dur != nil && !st.dur.closed {
		if err := st.dur.wal.Sync(); err != nil && !errors.Is(err, wal.ErrClosed) {
			return fmt.Errorf("store: promote: seal WAL tail: %w", err)
		}
	}
	st.follower = false
	return nil
}

// ApplyReplicated applies one replicated WAL batch payload that produces
// generation target. The payload is validated and logged to the
// follower's own WAL before the spine applies it — identical ordering to
// a primary append, so the follower's directory always recovers through
// the ordinary Open path. target must be exactly the current generation
// plus one; anything else means the feed position and the local state
// have diverged and the error wraps ErrReplicaGap.
func (st *Store) ApplyReplicated(target uint64, payload []byte) (*Snapshot, error) {
	// Validate before any state changes: a corrupt payload must not reach
	// the WAL (replay would fail on it forever).
	records, upsert, err := decodeBatch(payload)
	if err != nil {
		return nil, err
	}
	switch {
	case st.dur == nil:
		return nil, errors.New("store: ApplyReplicated on an in-memory store")
	case target == 0: // generations start at 1; 0 marks a primary append
		return nil, fmt.Errorf("%w: batch targets generation 0", ErrReplicaGap)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.commitLocked(payload, records, upsert, target)
}
