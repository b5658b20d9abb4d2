package server

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"repro"
	"repro/internal/repl"
)

// Replication endpoints (durable hosts only):
//
//	GET  /v1/replication/{name}/segment  newest checkpoint segment (bootstrap)
//	GET  /v1/replication/{name}/wal      long-lived WAL tail stream
//	POST /v1/replication/{name}/promote  make a replica the primary
//
// A server started with Config.ReplicateFrom runs in follower mode: it
// mirrors every database of the upstream primary into its own data dir,
// serves all read endpoints from the local copies, and answers write
// endpoints with 409 pointing at the primary. Promotion (per database)
// ends replication and makes the local copy an ordinary primary.

// EpochMetaFile is the file recording a database's lineage epoch inside its directory.
// A fresh epoch is minted on every upload-replace and every promotion —
// the moments the directory's contents stop being a continuation of what
// was there before — so followers detect wholesale replacement, which
// generation numbers alone cannot express.
const EpochMetaFile = "epoch.meta"

// newEpoch mints a random lineage identifier.
func newEpoch() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; fall back to a
		// timestamp, which still changes per upload.
		return fmt.Sprintf("t%d", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// writeEpoch mints a fresh epoch and records it in dir.
func (s *Server) writeEpoch(dir string) (string, error) {
	e := newEpoch()
	if err := s.writeSidecar(dir, EpochMetaFile, e); err != nil {
		return "", err
	}
	return e, nil
}

// readOrCreateEpoch returns the directory's recorded epoch, minting one
// for directories from before epochs existed.
func (s *Server) readOrCreateEpoch(dir string) string {
	if e, ok := s.readSidecar(dir, EpochMetaFile); ok && e != "" {
		return e
	}
	e, err := s.writeEpoch(dir)
	if err != nil {
		// Served from memory this run; followers re-bootstrap after the
		// next restart mints a different epoch. Harmless, just wasteful.
		return newEpoch()
	}
	return e
}

// dbSource adapts one named database to the feed's Source, resolving the
// entry on every call: a long-lived WAL stream observes upload-replace
// (new epoch) and delete (empty epoch) live, and answers both with a
// re-bootstrap frame instead of serving a dead lineage.
type dbSource struct {
	s    *Server
	name string
}

func (ds dbSource) Dir() string { return ds.s.dbDir(ds.name) }

func (ds dbSource) Generation() uint64 {
	if e, ok := ds.s.get(ds.name); ok {
		return e.db.Snapshot().Generation()
	}
	return 0
}

func (ds dbSource) Checkpoint() error {
	e, ok := ds.s.get(ds.name)
	if !ok {
		return errUnknownDatabase(ds.name)
	}
	return e.db.Compact()
}

func (ds dbSource) Epoch() string {
	if e, ok := ds.s.get(ds.name); ok {
		return e.epoch
	}
	return ""
}

// replicationEntry validates a replication-feed request and returns the
// entry it addresses. Feeds are served from primary databases on durable
// hosts only: the protocol ships the on-disk segment and WAL files.
func (s *Server) replicationEntry(w http.ResponseWriter, r *http.Request) (*dbEntry, bool) {
	if s.dataDir == "" {
		writeError(w, http.StatusNotImplemented, "replication requires a durable host (-data-dir)")
		return nil, false
	}
	name := r.PathValue("name")
	e, ok := s.get(name)
	if !ok {
		writeErrorFor(w, errUnknownDatabase(name))
		return nil, false
	}
	if e.replica != nil {
		writeError(w, http.StatusConflict, "database %q is a replica of %s; replicate from the primary", name, s.replicateFrom)
		return nil, false
	}
	return e, true
}

func (s *Server) feed() *repl.Feed {
	return &repl.Feed{FS: s.openOpts.FS, Poll: s.tuning.poll, Heartbeat: s.tuning.heartbeat}
}

func (s *Server) handleReplSegment(w http.ResponseWriter, r *http.Request) {
	e, ok := s.replicationEntry(w, r)
	if !ok {
		return
	}
	f := s.feed()
	f.Src = dbSource{s: s, name: e.name}
	f.ServeSegment(w, r)
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	e, ok := s.replicationEntry(w, r)
	if !ok {
		return
	}
	f := s.feed()
	f.Src = dbSource{s: s, name: e.name}
	f.ServeWAL(w, r)
}

// handlePromote makes a replica database the primary: the tailer stops,
// the local state starts accepting writes, and a fresh epoch marks the
// new lineage. One-way; the old primary must be fenced off operationally.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	unlock := s.lockDir(name)
	defer unlock()
	e, ok := s.get(name)
	if !ok {
		writeErrorFor(w, errUnknownDatabase(name))
		return
	}
	if e.replica == nil {
		writeError(w, http.StatusConflict, "database %q is not a replica", name)
		return
	}
	if err := e.replica.Promote(); err != nil {
		writeError(w, http.StatusInternalServerError, "promote %q: %v", name, err)
		return
	}
	epoch, err := s.writeEpoch(s.dbDir(name))
	if err != nil {
		// The promotion itself held (writes are accepted); only the new
		// lineage marker is missing. Serve with an unpersisted epoch.
		epoch = newEpoch()
	}
	// Swap in a primary entry sharing the same database handle. Not put():
	// that would close the store we just promoted, and the contents did
	// not change so cached mining results stay valid.
	promoted := &dbEntry{
		name:       e.name,
		db:         e.db,
		formatName: e.formatName,
		generation: e.generation,
		created:    e.created,
		epoch:      epoch,
	}
	s.mu.Lock()
	if cur := s.dbs[name]; cur == e {
		s.dbs[name] = promoted
	}
	s.mu.Unlock()
	s.logf("server: promoted %q at generation %d", name, e.db.Snapshot().Generation())
	writeJSON(w, http.StatusOK, map[string]any{
		"name":       name,
		"role":       repro.RolePrimary,
		"generation": e.db.Snapshot().Generation(),
		"epoch":      epoch,
	})
}

// closeEntry releases one entry's resources: a replica's tailer and
// store, or a plain database's store.
func closeEntry(e *dbEntry) error {
	if e.replica != nil {
		return e.replica.Close()
	}
	return e.db.Close()
}

// openReplicaEntry opens (or resumes) one replica and registers it.
func (s *Server) openReplicaEntry(name, formatName string) error {
	unlock := s.lockDir(name)
	defer unlock()
	if _, ok := s.get(name); ok {
		return nil
	}
	dir := s.dbDir(name)
	r, err := repro.OpenReplica(s.replicateFrom, name, dir, repro.ReplicaOptions{
		Open:       s.openOpts,
		Backoff:    s.tuning.backoff,
		BackoffMax: s.tuning.backoffMax,
		Logf:       s.logf,
	})
	if err != nil {
		return err
	}
	if err := s.writeSidecar(dir, formatMetaFile, formatName); err != nil {
		s.logf("server: follower: record format for %q: %v", name, err)
	}
	s.mu.Lock()
	s.gen++
	s.dbs[name] = &dbEntry{
		name:       name,
		db:         r.Database(),
		formatName: formatName,
		generation: s.gen,
		created:    time.Now(),
		replica:    r,
	}
	s.mu.Unlock()
	return nil
}

// dropReplica removes a replica whose database the upstream no longer
// has: the delete is replicated — entry, tailer, and files all go.
func (s *Server) dropReplica(e *dbEntry) {
	unlock := s.lockDir(e.name)
	defer unlock()
	s.mu.Lock()
	if cur := s.dbs[e.name]; cur != e {
		// Replaced or promoted since we looked; leave it alone.
		s.mu.Unlock()
		return
	}
	delete(s.dbs, e.name)
	s.mu.Unlock()
	s.cache.purgePrefix(e.name + "@") // frees memory; keys are never reused
	_ = e.replica.Close()
	if err := s.removeDBDir(e.name); err != nil {
		s.logf("server: follower: remove %q: %v", e.name, err)
	}
	s.logf("server: follower: dropped %q (deleted on primary)", e.name)
}

// DefaultManagerPoll is how often a follower-mode server reconciles its
// replica set against the upstream's database list.
const DefaultManagerPoll = 5 * time.Second

// runManager is the follower-mode reconciliation loop.
func (s *Server) runManager() {
	defer close(s.managerDone)
	for {
		s.syncReplicas()
		select {
		case <-s.stopCh:
			return
		case <-time.After(s.tuning.managerPoll):
		}
	}
}

// syncReplicas reconciles once: start replicas for upstream databases we
// do not hold, drop replicas for databases the upstream deleted. Promoted
// databases (replica == nil) are never touched.
func (s *Server) syncReplicas() {
	upstream, err := s.fetchUpstreamDatabases()
	if err != nil {
		s.logf("server: follower: list upstream: %v", err)
		return
	}
	have := make(map[string]bool)
	for _, e := range s.list() {
		have[e.name] = true
	}
	for _, u := range upstream {
		if !dbNameRE.MatchString(u.Name) || have[u.Name] {
			continue
		}
		if err := s.openReplicaEntry(u.Name, u.Format); err != nil {
			s.logf("server: follower: replicate %q: %v", u.Name, err)
		}
	}
	names := make(map[string]bool, len(upstream))
	for _, u := range upstream {
		names[u.Name] = true
	}
	for _, e := range s.list() {
		if e.replica != nil && !names[e.name] {
			s.dropReplica(e)
		}
	}
}

// upstreamDB is the slice of the primary's database listing the manager
// needs.
type upstreamDB struct {
	Name   string `json:"name"`
	Format string `json:"format"`
}

func (s *Server) fetchUpstreamDatabases() ([]upstreamDB, error) {
	u, err := url.JoinPath(s.replicateFrom, "/v1/databases")
	if err != nil {
		return nil, err
	}
	resp, err := s.managerClient.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("list databases: %s", resp.Status)
	}
	var body struct {
		Databases []upstreamDB `json:"databases"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, err
	}
	return body.Databases, nil
}

// replicaLagging applies the configured read gate to one replica status:
// a follower too far behind (bytes) or too long out of contact (seconds)
// is not ready. Zero disables each bound; a follower that has never had
// contact is lagging under any time bound.
func (s *Server) replicaLagging(st repro.ReplicaStatus) bool {
	if st.Role != repro.RoleFollower {
		return false
	}
	if s.maxLagBytes > 0 && st.LagBytes > uint64(s.maxLagBytes) {
		return true
	}
	if s.maxLag > 0 && (st.LastContact.IsZero() || st.LagSeconds > s.maxLag.Seconds()) {
		return true
	}
	return false
}
