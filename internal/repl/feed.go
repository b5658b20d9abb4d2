package repl

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/store"
	"repro/internal/vfs"
)

// Source is the primary-side view of one replicated database the feed
// serves from. The server implements it over its database registry.
type Source interface {
	// Dir is the database's storage directory.
	Dir() string
	// Generation is the current published (acknowledged) generation. The
	// feed never ships a WAL record beyond it: with group commit, frames
	// can be durable in the WAL before their applies publish, and under
	// degraded-mode healing such unacknowledged frames may be truncated
	// away — shipping them would replicate state the primary may revoke.
	Generation() uint64
	// Checkpoint forces a checkpoint so a segment exists to bootstrap
	// from.
	Checkpoint() error
	// Epoch identifies the database lineage. It changes when the database
	// is replaced wholesale (re-upload), which generation numbers alone
	// cannot express; a follower holding a different epoch must
	// re-bootstrap.
	Epoch() string
}

// Feed serves the primary side of the replication protocol for one
// database: the segment download and the WAL tail stream.
type Feed struct {
	Src Source
	// FS is the filesystem the feed reads segments and WAL files through;
	// nil selects the real one.
	FS vfs.FS
	// Poll is how often the WAL stream re-checks for new records when
	// caught up; 0 selects DefaultPoll.
	Poll time.Duration
	// Heartbeat is the idle heartbeat cadence; 0 selects
	// DefaultHeartbeat.
	Heartbeat time.Duration
}

// Feed cadence defaults: the poll bounds replication latency when idle
// connections sit between batches, the heartbeat bounds how stale a
// follower's liveness clock can get.
const (
	DefaultPoll      = 25 * time.Millisecond
	DefaultHeartbeat = time.Second
)

// ServeSegment serves the newest checkpoint segment, forcing a checkpoint
// when none exists yet. The raw segment bytes go over the wire — they
// carry their own CRC, which the follower re-validates before installing.
// The response headers carry the epoch and the segment's generation.
func (f *Feed) ServeSegment(w http.ResponseWriter, r *http.Request) {
	// A checkpoint on another goroutine can sweep the segment between
	// listing and reading; retry a couple of times before giving up.
	for attempt := 0; ; attempt++ {
		data, gen, ok, err := store.LatestSegment(vfs.Or(f.FS), f.Src.Dir())
		if err == nil && !ok {
			err = f.Src.Checkpoint()
			if err == nil {
				continue
			}
		} else if err != nil && attempt < 3 {
			continue
		}
		if err != nil {
			http.Error(w, fmt.Sprintf("replication: segment: %v", err), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Replication-Epoch", f.Src.Epoch())
		w.Header().Set("X-Replication-Generation", strconv.FormatUint(gen, 10))
		w.Write(data)
		return
	}
}

// parseFrom parses the follower position "‹base›,‹rec›": the follower has
// applied rec records of the chain file based at base, so the next record
// it needs produces generation base+rec+1.
func parseFrom(s string) (base uint64, rec int, err error) {
	b, r, ok := strings.Cut(s, ",")
	if !ok {
		return 0, 0, fmt.Errorf("repl: position %q is not <gen>,<rec>", s)
	}
	base, err = strconv.ParseUint(b, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("repl: position %q: %w", s, err)
	}
	rec64, err := strconv.ParseInt(r, 10, 32)
	if err != nil || rec64 < 0 {
		return 0, 0, fmt.Errorf("repl: position %q: bad record count", s)
	}
	return base, int(rec64), nil
}

// ServeWAL streams WAL records from the follower's position (?from=
// <gen>,<rec>, ?epoch=...) as a long-lived chunked response: record
// frames while the follower is behind, heartbeat frames when caught up,
// and a single re-bootstrap frame (then EOF) when the position cannot be
// served — wrong epoch, a position beyond the primary, or a chain prefix
// the last checkpoint already swept.
func (f *Feed) ServeWAL(w http.ResponseWriter, r *http.Request) {
	base, rec, err := parseFrom(r.URL.Query().Get("from"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "replication: streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Replication-Epoch", f.Src.Epoch())
	w.WriteHeader(http.StatusOK)

	var buf []byte
	send := func(typ byte, gen, aux uint64, payload []byte) bool {
		buf = appendFrame(buf[:0], typ, gen, aux, payload)
		_, err := w.Write(buf)
		return err == nil
	}
	rebootstrap := func() {
		send(FrameRebootstrap, 0, 0, nil)
		flusher.Flush()
	}

	applied := base + uint64(rec)
	epoch := r.URL.Query().Get("epoch")
	if epoch != f.Src.Epoch() || applied > f.Src.Generation() {
		// A different lineage, or a position from a future this primary
		// never produced (e.g. the primary itself was restored from an
		// older backup): nothing along this chain can be valid.
		rebootstrap()
		return
	}

	poll := f.Poll
	if poll <= 0 {
		poll = DefaultPoll
	}
	hb := f.Heartbeat
	if hb <= 0 {
		hb = DefaultHeartbeat
	}
	pollT := time.NewTicker(poll)
	defer pollT.Stop()
	hbT := time.NewTicker(hb)
	defer hbT.Stop()

	chain := store.NewChainReader(vfs.Or(f.FS), f.Src.Dir(), applied+1)
	defer chain.Close()
	ctx := r.Context()
	for {
		// The lineage can change under a live stream (the database is
		// replaced, or the source regresses past our position); both make
		// every byte we could send wrong.
		if epoch != f.Src.Epoch() || applied > f.Src.Generation() {
			rebootstrap()
			return
		}
		// Stream everything acknowledged and not yet sent. A record not
		// yet visible is retried at the next poll.
		sent := false
		for cur := f.Src.Generation(); applied < cur; {
			p, ok, err := chain.Next(cur)
			if errors.Is(err, store.ErrChainGap) {
				// The retained chain cannot serve the position (swept by a
				// checkpoint, or broken): the follower must re-bootstrap.
				rebootstrap()
				return
			}
			if err != nil {
				// I/O trouble on the primary: drop the stream; the follower
				// reconnects and resumes.
				return
			}
			if !ok {
				break
			}
			applied++
			if !send(FrameRecord, applied, cur, p) {
				return // client gone
			}
			sent = true
		}
		if sent {
			flusher.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-hbT.C:
			// Heartbeats carry the chain bytes beyond the sent position so
			// a follower can report byte lag without knowing the layout.
			pending, err := chain.Pending()
			if err != nil {
				pending = 0
			}
			if !send(FrameHeartbeat, f.Src.Generation(), pending, nil) {
				return
			}
			flusher.Flush()
		case <-pollT.C:
		}
	}
}
