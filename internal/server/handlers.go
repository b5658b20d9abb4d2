package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"regexp"
	"strings"
	"time"

	"repro"
)

// dbNameRE restricts database names to path-safe identifiers.
var dbNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// acceptsNDJSON reports whether an Accept header asks for NDJSON,
// tolerating media-type parameters and additional alternatives
// ("application/x-ndjson; charset=utf-8", "application/x-ndjson,
// application/json").
func acceptsNDJSON(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mediaType, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mediaType) == "application/x-ndjson" {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	hits, misses, size := s.cache.counters()
	s.mu.RLock()
	numDBs := len(s.dbs)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      "ok",
		"uptimeSec":   time.Since(s.started).Seconds(),
		"databases":   numDBs,
		"cacheHits":   hits,
		"cacheMisses": misses,
		"cacheSize":   size,
	})
}

// handleReady reports readiness for load balancing: 200 while every
// database accepts appends (and, on a follower, is within the configured
// replication lag), 503 with per-database causes otherwise — mines still
// answer on such a node, so a balancer should drain it, not kill it.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	entries := s.list()
	resp := readyResponse{Status: "ready", Databases: make([]readyDBJSON, 0, len(entries))}
	for _, e := range entries {
		p := e.db.Persistence()
		d := readyDBJSON{
			Name:            e.name,
			Ready:           !p.Degraded,
			Role:            p.Role,
			Durable:         p.Durable,
			Degraded:        p.Degraded,
			DegradedError:   p.DegradedError,
			WALError:        p.WALError,
			CheckpointError: p.CheckpointError,
			CommitBatches:   p.CommitBatches,
			FsyncsSaved:     p.FsyncsSaved,
		}
		if p.Degraded {
			resp.Status = "degraded"
		}
		if e.replica != nil {
			st := e.replica.Status()
			d.Replication = &st
			if s.replicaLagging(st) {
				// The read gate: a replica too far behind serves reads that
				// are too stale to trust, so this node drains until it
				// catches up (or is promoted).
				d.Ready = false
				if resp.Status == "ready" {
					resp.Status = "lagging"
				}
			}
		}
		resp.Databases = append(resp.Databases, d)
	}
	status := http.StatusOK
	if resp.Status != "ready" {
		status = http.StatusServiceUnavailable
		setRetryHint(w, status)
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.list()
	out := make([]dbInfo, len(entries))
	for i, e := range entries {
		out[i] = toDBInfo(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"databases": out})
}

// rejectOnFollower answers write requests addressed to replicated
// databases with 409 pointing at the primary. On a follower-mode server
// every database is covered except ones promoted to local primaries.
func (s *Server) rejectOnFollower(w http.ResponseWriter, name string) bool {
	if s.replicateFrom == "" {
		return false
	}
	if e, ok := s.get(name); ok && e.replica == nil {
		return false // promoted: locally primary now
	}
	writeError(w, http.StatusConflict, "database %q is read-only on this replica; write to the primary at %s", name, s.replicateFrom)
	return true
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !dbNameRE.MatchString(name) {
		writeError(w, http.StatusBadRequest, "invalid database name %q", name)
		return
	}
	if s.rejectOnFollower(w, name) {
		return
	}
	fname := r.URL.Query().Get("format")
	format, err := repro.ParseFormat(fname)
	if err != nil {
		writeErrorFor(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, DefaultMaxUploadBytes)
	db, err := repro.Load(body, format)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "upload exceeds %d bytes", DefaultMaxUploadBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if db.NumSequences() == 0 {
		writeError(w, http.StatusBadRequest, "database %q is empty", name)
		return
	}
	epoch := newEpoch()
	if s.dataDir != "" {
		// The upload was validated fully in memory above; only now replace
		// the previous database's files. The contents are checkpointed to
		// a segment before Persist returns, so the 201 below acknowledges
		// data that is already durable on disk. The directory mutation is
		// serialized per name, and the replaced store is closed FIRST so
		// its WAL writes and auto-checkpoints cannot interleave with the
		// new files (Persist itself orders new-segment-before-sweep, so a
		// failure here still leaves the old files recoverable; the old
		// entry keeps serving reads from memory either way, with appends
		// to it failing until a successful replacement or restart).
		unlock := s.lockDir(name)
		defer unlock()
		if old, ok := s.get(name); ok {
			_ = old.db.Close()
		}
		dir := s.dbDir(name)
		durable, err := db.Persist(dir, s.openOpts)
		if err != nil {
			writeErrorFor(w, err) // wraps ErrStorage -> 500
			return
		}
		if err := s.writeSidecar(dir, formatMetaFile, format.String()); err != nil {
			durable.Close()
			writeError(w, http.StatusInternalServerError, "record format: %v", err)
			return
		}
		// A new upload is a new lineage: followers of this name must
		// re-bootstrap, which the fresh epoch tells them.
		if written, err := s.writeEpoch(dir); err == nil {
			epoch = written
		}
		db = durable
	}
	// Warm the index before publishing: not needed for safety (miners
	// build lazily against immutable snapshots), but it keeps first-mine
	// latency flat and lets appends extend the index incrementally.
	db.Snapshot().Warm()
	e := s.put(name, format.String(), epoch, db)
	writeJSON(w, http.StatusCreated, toDBInfo(e))
}

// appendChunkSize is how many NDJSON records are batched into one atomic
// snapshot publish during streaming ingestion. Bounds memory on huge
// streams while keeping per-snapshot overhead negligible.
const appendChunkSize = 1024

// handleAppend streams NDJSON records — {"label":"...","events":[...]}
// per line — into an existing database. Records whose label names an
// existing sequence extend it (live-trace upsert); others append new
// sequences. Records are applied in chunks, each chunk one atomic
// snapshot swap, so concurrent miners are never disturbed and memory
// stays flat regardless of stream size. On a mid-stream parse error the
// chunks already applied stay applied; the error response reports how
// many records made it in.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnFollower(w, r.PathValue("name")) {
		return
	}
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		writeErrorFor(w, errUnknownDatabase(r.PathValue("name")))
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, DefaultMaxUploadBytes))
	applied := 0
	batch := make([]repro.Record, 0, appendChunkSize)
	// flush applies one chunk; on a durable host a WAL write failure means
	// the chunk was neither applied nor acknowledged — report it with the
	// exact count of records that did make it in, under the status the
	// error taxonomy assigns (a degraded database: 503 + Retry-After; a
	// database that became a replica mid-stream: 409).
	flush := func() error {
		if len(batch) > 0 {
			if _, err := e.db.Append(batch); err != nil {
				status := statusFor(err)
				setRetryHint(w, status)
				writeJSON(w, status, appendErrorResponse{
					Error:            fmt.Sprintf("append not durable after record %d: %v", applied, err),
					AppliedRecords:   applied,
					PartiallyApplied: applied > 0,
				})
				return err
			}
			applied += len(batch)
			batch = batch[:0]
		}
		return nil
	}
	for {
		var rec appendRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			recordNum := applied + len(batch) + 1
			if flush() != nil {
				return // durability failure already reported
			}
			var tooBig *http.MaxBytesError
			status := http.StatusBadRequest
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, appendErrorResponse{
				Error:            fmt.Sprintf("decode record %d: %v", recordNum, err),
				AppliedRecords:   applied,
				PartiallyApplied: applied > 0,
			})
			return
		}
		if len(rec.Events) == 0 {
			// An append record exists to carry events; without them it
			// would either create a useless empty sequence or churn a
			// snapshot for nothing. Reject instead of guessing intent.
			recordNum := applied + len(batch) + 1
			if flush() != nil {
				return
			}
			writeJSON(w, http.StatusBadRequest, appendErrorResponse{
				Error:            fmt.Sprintf("record %d: no events", recordNum),
				AppliedRecords:   applied,
				PartiallyApplied: applied > 0,
			})
			return
		}
		batch = append(batch, repro.Record{Label: rec.Label, Events: rec.Events})
		if len(batch) >= appendChunkSize {
			if flush() != nil {
				return
			}
		}
	}
	if flush() != nil {
		return
	}
	if applied == 0 {
		writeError(w, http.StatusBadRequest, "empty append stream")
		return
	}
	// Re-validate the entry before acknowledging: a concurrent re-upload
	// or delete of this name swaps/drops the entry, and chunks applied
	// after that landed in the orphaned store — acknowledging them with a
	// 200 would report a write nobody can read. The applied count is
	// still reported so the client knows how far the stream got.
	if cur, ok := s.get(e.name); !ok || cur != e {
		writeJSON(w, http.StatusConflict, appendErrorResponse{
			Error:            fmt.Sprintf("database %q was replaced or deleted during the append; appended records are not visible", e.name),
			AppliedRecords:   applied,
			PartiallyApplied: true,
		})
		return
	}
	writeJSON(w, http.StatusOK, appendResponse{dbInfo: toDBInfo(e), AppendedRecords: applied})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.rejectOnFollower(w, name) {
		return
	}
	ok, err := s.delete(name)
	if !ok {
		writeErrorFor(w, errUnknownDatabase(name))
		return
	}
	if err != nil {
		// The entry is gone from the server, but files linger: report it,
		// because a restart would resurrect the database.
		writeError(w, http.StatusInternalServerError, "database %q dropped but its files were not fully removed: %v", name, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		writeErrorFor(w, errUnknownDatabase(r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, toDBInfo(e))
}

// maxRequestBody caps the JSON bodies of /mine and /support. Uploads have
// their own (much larger) cap.
const maxRequestBody = 1 << 20

// decodeRequest decodes the JSON body of a /mine or /support request into
// v, answering 400 and reporting false when it is malformed. An empty
// body decodes to v's zero value when emptyOK. The decoder's own text for
// a syntax or type error names Go types and struct fields; the answer
// names the byte offset, or the JSON field and the JSON type it needs. An
// unknown semantics name fails inside the decoder (Semantics parses
// itself) and answers like every other query error.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any, emptyOK bool) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v)
	if err == nil || (emptyOK && err == io.EOF) {
		return true
	}
	var syntaxErr *json.SyntaxError
	var typeErr *json.UnmarshalTypeError
	switch {
	case errors.Is(err, repro.ErrUnknownSemantics):
		writeErrorFor(w, err)
		return false
	case errors.As(err, &syntaxErr):
		err = fmt.Errorf("malformed JSON at byte %d", syntaxErr.Offset)
	case errors.As(err, &typeErr):
		what := "body"
		if f := typeErr.Field; f != "" {
			// The path's last element is the JSON key; earlier ones can
			// name embedded Go structs.
			what = fmt.Sprintf("field %q", f[strings.LastIndexByte(f, '.')+1:])
		}
		err = fmt.Errorf("%s must be a JSON %s", what, jsonType(typeErr.Type))
	}
	writeError(w, http.StatusBadRequest, "decode request: %v", err)
	return false
}

// jsonType names the JSON type a Go type decodes from.
func jsonType(t reflect.Type) string {
	switch t.Kind() {
	case reflect.Bool:
		return "boolean"
	case reflect.String:
		return "string"
	case reflect.Slice, reflect.Array:
		return "array"
	case reflect.Map, reflect.Struct:
		return "object"
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
		reflect.Float32, reflect.Float64:
		return "number"
	default:
		return "value"
	}
}

func (s *Server) handleSupport(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		writeErrorFor(w, errUnknownDatabase(r.PathValue("name")))
		return
	}
	var q supportRequest
	if !decodeRequest(w, r, &q, false) {
		return
	}
	if len(q.Pattern) == 0 {
		writeError(w, http.StatusBadRequest, "pattern must be non-empty")
		return
	}
	// Pin one snapshot so support, instances, and the per-sequence vector
	// all answer from the same generation even while appends land.
	snap := e.db.Snapshot()
	resp := supportResponse{
		Database:           e.name,
		SnapshotGeneration: snap.Generation(),
		Pattern:            q.Pattern,
		Support:            snap.Support(q.Pattern),
	}
	if q.Instances {
		resp.Instances = snap.SupportSet(q.Pattern)
	}
	if q.PerSequence {
		resp.PerSequence = snap.PerSequenceSupport(q.Pattern)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleMine(w http.ResponseWriter, r *http.Request) {
	e, ok := s.get(r.PathValue("name"))
	if !ok {
		writeErrorFor(w, errUnknownDatabase(r.PathValue("name")))
		return
	}
	var q mineRequest
	if !decodeRequest(w, r, &q, true) {
		return
	}
	opt, err := q.options()
	if err != nil {
		writeErrorFor(w, err)
		return
	}
	stream := q.Stream || acceptsNDJSON(r.Header.Get("Accept"))

	// Pin the snapshot current at request arrival: the whole run — cache
	// key included — is against this one immutable generation, so appends
	// landing mid-mine neither disturb the run nor poison the cache.
	snap := e.db.Snapshot()
	key := cacheKey(e.name, e.generation, snap.Generation(), opt)
	if out, ok := s.cache.get(key); ok {
		if stream {
			streamOutcome(w, e, out)
		} else {
			writeMineJSON(w, buildResponse(e, out, true))
		}
		return
	}

	// Admission control, applied after the cache check: replaying a
	// cached result is O(result) and never queues behind the CPU, so only
	// actual mining runs hold a semaphore slot. A full semaphore sheds
	// the request immediately with 429 — a bounded worker pool in reverse:
	// the clients queue, the goroutines do not.
	if s.mineSem != nil {
		select {
		case s.mineSem <- struct{}{}:
			defer func() { <-s.mineSem }()
		default:
			setRetryHint(w, http.StatusTooManyRequests)
			writeError(w, http.StatusTooManyRequests, "too many concurrent mining requests")
			return
		}
	}
	// The per-request deadline rides the client-cancellation context the
	// miners already honor, so one cooperative-abort mechanism covers
	// disconnects, shutdown, and slow queries alike.
	ctx := r.Context()
	if s.mineTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.mineTimeout)
		defer cancel()
	}

	// A stream writes each pattern the moment the miner finds it; the
	// complete result still accumulates in memory so it can be cached for
	// replay.
	opt.Ctx = ctx
	var nw *ndjsonWriter
	if stream {
		nw = newNDJSONWriter(w, true)
		opt.OnPattern = func(p repro.Pattern) bool { return nw.pattern(&p) }
	}
	res, err := snap.Mine(opt)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		// Before the first NDJSON line the failure can still be a clean
		// error status; mid-stream the client sees a truncated stream (no
		// summary line), which is the NDJSON protocol's abort signal.
		if nw == nil || nw.lines == 0 {
			s.writeMineError(w, err)
		}
		return
	}
	out := &mineOutcome{algorithm: opt.Algorithm(), semantics: opt.Semantics.String(), generation: snap.Generation(), workers: max(opt.Workers, 1), result: res}
	s.maybeCache(key, out)
	if nw != nil {
		nw.summary(buildSummary(e, out, false))
		return
	}
	writeMineJSON(w, buildResponse(e, out, false))
}

// writeMineJSON writes a buffered mine response under one
// streamWriteBudget deadline, as a replayed stream is written: a client
// that stops reading a large result cannot pin the handler.
func writeMineJSON(w http.ResponseWriter, resp mineResponse) {
	_ = http.NewResponseController(w).SetWriteDeadline(time.Now().Add(streamWriteBudget))
	writeJSON(w, http.StatusOK, resp)
}

// writeMineError answers a run that failed or was aborted through its
// context. On a deadline the client is still listening — tell it the
// budget ran out. On any other abort the client usually disconnected and
// the write goes nowhere, but on server shutdown it may still be
// listening — tell it the result is not coming rather than sending an
// empty 200.
func (s *Server) writeMineError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		setRetryHint(w, http.StatusServiceUnavailable)
		writeError(w, http.StatusServiceUnavailable, "mine timed out after %v", s.mineTimeout)
	case errors.Is(err, context.Canceled):
		setRetryHint(w, http.StatusServiceUnavailable)
		writeError(w, http.StatusServiceUnavailable, "mine aborted: %v", err)
	default:
		writeErrorFor(w, err)
	}
}

// maybeCache stores complete results only: truncated runs (budget hit,
// stream aborted, ctx cancelled) are both request-specific and
// scheduling-dependent, so they must never be replayed to other clients.
func (s *Server) maybeCache(key string, out *mineOutcome) {
	if !out.result.Truncated {
		s.cache.put(key, out)
	}
}

func buildResponse(e *dbEntry, out *mineOutcome, cached bool) mineResponse {
	return mineResponse{mineSummary: buildSummary(e, out, cached), Patterns: out.result.Patterns}
}

func buildSummary(e *dbEntry, out *mineOutcome, cached bool) mineSummary {
	return mineSummary{
		Database:           e.name,
		Generation:         e.generation,
		SnapshotGeneration: out.generation,
		Algorithm:          out.algorithm,
		Semantics:          out.semantics,
		Workers:            out.workers,
		EffectiveWorkers:   out.result.WorkersEffective,
		NumPatterns:        out.result.NumPatterns,
		Truncated:          out.result.Truncated,
		TopKFrontierPeak:   out.result.TopKFrontierPeak,
		TopKArenaBytes:     out.result.TopKArenaBytes,
		ElapsedMS:          float64(out.result.Elapsed) / float64(time.Millisecond),
		Cached:             cached,
	}
}

// ndjsonLine is one line of a streaming response: exactly one of the two
// fields is set, and the summary line is always last.
type ndjsonLine struct {
	Pattern *repro.Pattern `json:"pattern,omitempty"`
	Summary *mineSummary   `json:"summary,omitempty"`
}

// streamWriteBudget bounds mine response writes, NDJSON and buffered
// alike. A client that stops reading (but keeps the connection open)
// would otherwise block a write forever, pinning the handler goroutine,
// its connection and, on a live stream, a mining slot; with the deadline
// the write fails, a live run aborts, and everything frees. Generous
// enough that no live client — however slow its link — trips it between
// two small lines.
const streamWriteBudget = 30 * time.Second

// ndjsonWriter writes the lines of one NDJSON mine response, every write
// under a streamWriteBudget deadline. A live stream re-arms the deadline
// and flushes before each line, since mining between lines may take any
// time; a replay of a finished result arms it once for the whole
// response. Deadlines are best-effort: a ResponseWriter without deadline
// support (test recorders) simply writes unbounded.
type ndjsonWriter struct {
	enc     *json.Encoder
	rc      *http.ResponseController
	flusher http.Flusher
	live    bool
	lines   int // pattern lines written
}

func newNDJSONWriter(w http.ResponseWriter, live bool) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	nw := &ndjsonWriter{enc: json.NewEncoder(w), rc: http.NewResponseController(w), live: live}
	nw.enc.SetEscapeHTML(false)
	if live {
		nw.flusher, _ = w.(http.Flusher)
	} else {
		nw.arm()
	}
	return nw
}

func (nw *ndjsonWriter) arm() { _ = nw.rc.SetWriteDeadline(time.Now().Add(streamWriteBudget)) }

// write encodes one line; false means the client went away or stalled out.
func (nw *ndjsonWriter) write(line ndjsonLine) bool {
	if nw.live {
		nw.arm()
	}
	if err := nw.enc.Encode(line); err != nil {
		return false
	}
	if nw.flusher != nil {
		nw.flusher.Flush()
	}
	return true
}

// pattern writes one pattern line; false means the client is gone. A
// replay passes a pointer into the cached result; a live stream calls it
// from its OnPattern callback, so a false return aborts the run.
func (nw *ndjsonWriter) pattern(p *repro.Pattern) bool {
	if !nw.write(ndjsonLine{Pattern: p}) {
		return false
	}
	nw.lines++
	return true
}

// summary writes the closing summary line.
func (nw *ndjsonWriter) summary(sum mineSummary) { nw.write(ndjsonLine{Summary: &sum}) }

// streamOutcome replays a cached result in NDJSON form.
func streamOutcome(w http.ResponseWriter, e *dbEntry, out *mineOutcome) {
	nw := newNDJSONWriter(w, false)
	for i := range out.result.Patterns {
		if !nw.pattern(&out.result.Patterns[i]) {
			return
		}
	}
	nw.summary(buildSummary(e, out, true))
}
