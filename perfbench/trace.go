package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/server"
	"repro/internal/store"
)

// span is one timed call into a layer on behalf of one op. Spans of one op
// share its ID.
type span struct {
	Op    int           `json:"op"`
	Layer string        `json:"layer"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is a span's duration minus the part of its interval that its
// children cover. Overlapping children count once; time a child spends
// outside the parent's interval does not count at all.
func selfTime(parent span, children []span) time.Duration {
	iv := make([]span, 0, len(children))
	for _, c := range children {
		if c.Start < parent.Start {
			c.Start = parent.Start
		}
		if c.End > parent.End {
			c.End = parent.End
		}
		if c.End > c.Start {
			iv = append(iv, c)
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a].Start < iv[b].Start })
	covered := time.Duration(0)
	var curS, curE time.Duration
	for i, c := range iv {
		if i == 0 || c.Start > curE {
			covered += curE - curS
			curS, curE = c.Start, c.End
		} else if c.End > curE {
			curE = c.End
		}
	}
	covered += curE - curS
	return parent.dur() - covered
}

// replayedUnder lays a deeper layer's span at the start of its parent. The
// traced run replays each op once per depth, on that depth's own replica of
// the inputs, so the deeper call did not run inside the parent's interval;
// laid there, the self-time rule gives the parent's span minus the deeper
// span of the same op.
func replayedUnder(parent, child span) span {
	return span{Op: child.Op, Layer: child.Layer, Start: parent.Start, End: parent.Start + child.dur()}
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func (t *tracer) now() time.Duration { return time.Since(t.origin) }

func (t *tracer) record(op int, layer string, start time.Duration) span {
	s := span{Op: op, Layer: layer, Start: start, End: t.now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replicas are the three copies of a workload's databases the traced run
// writes to: one per depth.
type replicas struct {
	handler http.Handler
	srv     *server.Server
	w       workload
	up      map[string][]byte
	dir     string
	loads   int
	// walClosed holds the WAL counters of store replicas an upload replaced.
	walClosed walTotals
	lib       map[string]*repro.Database
	st        map[string]*store.Store
	// segSeen is the newest checkpoint generation seen on each store
	// replica, guarded by layerStats.mu.
	segSeen map[string]uint64
}

func (r *replicas) close() {
	r.srv.Close()
	for _, db := range r.lib {
		db.Close()
	}
	for _, st := range r.st {
		st.Close()
	}
}

func serve(h http.Handler, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

func allocs() (bytes, mallocs uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// layerStats accumulates the traced run's per-layer observations. The
// clients' goroutines update it under mu.
type layerStats struct {
	mu                                           sync.Mutex
	serverMine, serverMineSelf, serverAppendSelf latencies
	responseBytes                                int64
	mines, hits, shed                            int
	reproMine, reproMineSelf, reproAppend        latencies
	reproAllocBytes                              uint64
	reproMines                                   int
	coreMine, gappedMine                         latencies
	coreAllocs, gappedAllocs                     uint64
	coreStats                                    struct{ nodes, insgrow, closure, memo, stolen, patterns int }
	frontierPeak                                 int
	seqBuildMS                                   float64
	seqExtend, storeAppend, checkpointAppend     latencies
	checkpoints                                  int
	walBytes, walRecords                         int64
	serverMineTotal, kernelTotal                 time.Duration
}

// replayCycle runs cycle n of w's script through do, the way the load
// generator's clients run it: the ops before a client's barrier first, one
// client after the other, then the rest with one goroutine per client, so
// the clients' requests overlap and group commit can coalesce their
// appends.
func replayCycle(w workload, n int, do func(c int, o op)) {
	rest := make([][]op, w.clients)
	for c := range rest {
		ops := w.cycle(c, n)
		for i, o := range ops {
			if o.Kind == opBarrier {
				for _, p := range ops[:i] {
					do(c, p)
				}
				ops = ops[i+1:]
				break
			}
		}
		rest[c] = ops
	}
	var wg sync.WaitGroup
	for c, ops := range rest {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, o := range ops {
				do(c, o)
			}
		}()
	}
	wg.Wait()
}

// opCount counts a replay's attempted and failed ops.
type opCount struct {
	mu                sync.Mutex
	attempted, failed int
	errs              []error
}

func (n *opCount) add(err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.attempted++
	if err != nil {
		n.failed++
		n.errs = append(n.errs, err)
	}
}

func runTraced(w workload, in *inputs, seconds int, dir string) (result, error) {
	rep := newReport()
	up := in.uploads()
	expected, err := expectedAnswers(w, up)
	if err != nil {
		return result{}, err
	}
	cycles := w.tracedCycles(seconds)

	plain, plainOps, err := replayUntraced(w, in, up, cycles, subdir(dir, "untraced"))
	if err != nil {
		return result{}, err
	}

	var ls layerStats
	r, err := buildReplicas(w, up, expected, dir, &ls)
	if err != nil {
		return result{}, err
	}
	defer r.close()

	tr := &tracer{origin: time.Now()}
	chks := make([]*checker, w.clients)
	for c := range chks {
		chks[c] = newChecker(expected)
	}
	walStart := walCounters(r)
	// Appends run side by side; uploads, and mines of a database that is
	// appended to, run alone, so every depth's replica holds the same
	// appends when they start and their allocation counts are their own.
	var excl sync.RWMutex
	var count opCount
	var opID atomic.Int64
	start := time.Now()
	for n := 0; n < cycles; n++ {
		replayCycle(w, n, func(c int, o op) {
			alone := o.Kind == opUpload || (o.Kind == opMine && w.name == "ingest-mine")
			if alone {
				excl.Lock()
				defer excl.Unlock()
			} else {
				excl.RLock()
				defer excl.RUnlock()
			}
			id := int(opID.Add(1))
			err := traceOp(tr, r, in, w, o, id, chks[c], &ls)
			if err != nil {
				err = fmt.Errorf("op %d (%s): %v", id, o, err)
			}
			count.add(err)
		})
	}
	traced := time.Since(start)
	for _, err := range count.errs {
		rep.fail(err)
	}
	walEnd := walCounters(r)
	rep.fail(compareReplicas(w, r))
	spanPath := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, in.seed))
	if err := tr.write(spanPath); err != nil {
		return result{}, err
	}
	logf("traced run: %d cycles, %d ops, %d spans written to %s", cycles, count.attempted, len(tr.spans), spanPath)

	if w.primed {
		rep.check(ls.hits == ls.mines, "mine-hot traced hit ratio: %d hits of %d mines, want all", ls.hits, ls.mines)
	}
	if w.cache < 0 {
		rep.check(ls.hits == 0, "mine-cold traced hit ratio: %d hits, want 0", ls.hits)
	}
	rep.check(plainOps == count.attempted, "untraced replay ran %d ops, traced %d", plainOps, count.attempted)
	reportLayers(rep, &ls, count.attempted, walStart, walEnd, tr)
	perOp := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(count.attempted)
	}
	rep.set("trace.overhead_pct", "%", 100*(float64(traced)/float64(plain)-1))
	logf("trace: %.3f ms per op traced (every depth, spans, allocation counts) against %.3f ms per op untraced (server depth only)",
		perOp(traced), perOp(plain))
	return rep.finish(count.attempted, count.failed), nil
}

// replayUntraced replays the same cycles at the server depth only, with
// no spans and no allocation counts, on a server of its own, and returns
// the time it took and the ops it ran: the baseline of the tracing
// overhead.
func replayUntraced(w workload, in *inputs, up map[string][]byte, cycles int, dir string) (time.Duration, int, error) {
	srv, err := server.New(server.Config{CacheSize: w.cache, DataDir: dir, Sync: w.syncPolicy(), CheckpointWALBytes: w.checkpointBytes})
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	h := srv.Handler()
	for _, db := range w.dbs {
		if rec := serve(h, "POST", "/v1/databases/"+db+"?format=tokens", up[db]); rec.Code != http.StatusCreated {
			return 0, 0, fmt.Errorf("untraced upload %s: %d", db, rec.Code)
		}
	}
	if w.primed {
		for _, q := range w.queries() {
			if rec := serve(h, "POST", "/v1/databases/"+q.DB+"/mine", q.body()); rec.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("untraced prime %s: %d", q.Name, rec.Code)
			}
		}
	}
	var count opCount
	start := time.Now()
	for n := 0; n < cycles; n++ {
		replayCycle(w, n, func(c int, o op) {
			var rec *httptest.ResponseRecorder
			want := http.StatusOK
			switch o.Kind {
			case opMine:
				rec = serve(h, "POST", "/v1/databases/"+o.Query.DB+"/mine", o.Query.body())
			case opUpload:
				rec = serve(h, "POST", "/v1/databases/"+o.DB+"?format=tokens", up[o.DB])
				want = http.StatusCreated
			default:
				rec = serve(h, "POST", "/v1/databases/"+o.DB+"/append", ndjson(in.batch(o.DB, o.Client, o.Batch)))
			}
			var err error
			if rec.Code != want {
				err = fmt.Errorf("untraced %s: status %d", o, rec.Code)
			}
			count.add(err)
		})
	}
	elapsed := time.Since(start)
	if len(count.errs) > 0 {
		return 0, 0, count.errs[0]
	}
	return elapsed, count.attempted, nil
}

// buildReplicas sets up the three depths' copies of the workload's
// databases.
func buildReplicas(w workload, up map[string][]byte, expected map[string]answer, dir string, ls *layerStats) (*replicas, error) {
	srv, err := server.New(server.Config{CacheSize: w.cache, DataDir: subdir(dir, "server"), Sync: w.syncPolicy(), CheckpointWALBytes: w.checkpointBytes})
	if err != nil {
		return nil, err
	}
	r := &replicas{handler: srv.Handler(), srv: srv, w: w, up: up, dir: dir,
		lib: map[string]*repro.Database{}, st: map[string]*store.Store{}, segSeen: map[string]uint64{}}
	for _, db := range w.dbs {
		build, err := r.load(db)
		if err != nil {
			r.close()
			return nil, err
		}
		if db == "quest" {
			ls.seqBuildMS = float64(build) / float64(time.Millisecond)
		}
	}
	if w.primed {
		chk := newChecker(expected)
		for _, q := range w.queries() {
			rec := serve(r.handler, "POST", "/v1/databases/"+q.DB+"/mine", q.body())
			if rec.Code != http.StatusOK {
				r.close()
				return nil, fmt.Errorf("traced prime %s: %d", q.Name, rec.Code)
			}
			if _, err := chk.check(q, rec.Body.Bytes()); err != nil {
				r.close()
				return nil, err
			}
		}
	}
	return r, nil
}

// load (re)creates database db from its upload bytes at every depth and
// returns the time the store replica took to build its index. Callers
// hold every other op off.
func (r *replicas) load(db string) (time.Duration, error) {
	r.loads++
	if rec := serve(r.handler, "POST", "/v1/databases/"+db+"?format=tokens", r.up[db]); rec.Code != http.StatusCreated {
		return 0, fmt.Errorf("traced upload %s: %d %s", db, rec.Code, rec.Body.Bytes())
	}
	if old := r.lib[db]; old != nil {
		old.Close()
	}
	if old := r.st[db]; old != nil {
		r.walClosed = r.walClosed.plus(old.Durability())
		old.Close()
	}
	mem, err := loadLibrary(r.up[db])
	if err != nil {
		return 0, err
	}
	lib, err := mem.Persist(subdir(r.dir, fmt.Sprintf("repro-%s-%d", db, r.loads)), repro.OpenOptions{Sync: r.w.syncPolicy(), CheckpointWALBytes: r.w.checkpointBytes})
	if err != nil {
		return 0, err
	}
	lib.Snapshot().Warm()
	r.lib[db] = lib
	sdb, err := parseSeq(r.up[db])
	if err != nil {
		return 0, err
	}
	st, err := store.Create(subdir(r.dir, fmt.Sprintf("store-%s-%d", db, r.loads)), sdb, store.Options{SyncPolicy: r.w.walPolicy(), CheckpointWALBytes: r.w.checkpointBytes})
	if err != nil {
		return 0, err
	}
	r.st[db] = st
	r.segSeen[db] = st.Durability().SegmentGeneration
	t := time.Now()
	st.Current().Index(false)
	return time.Since(t), nil
}

// compareReplicas checks that the library and store replicas of every
// database ended the run holding the same sequences.
func compareReplicas(w workload, r *replicas) error {
	for _, db := range w.dbs {
		lib, st := r.lib[db].Stats(), r.st[db].Current().DB()
		if lib.NumSequences != st.NumSequences() || lib.TotalLength != st.TotalLength() {
			return fmt.Errorf("%s: library replica %d sequences, %d events; store replica %d, %d",
				db, lib.NumSequences, lib.TotalLength, st.NumSequences(), st.TotalLength())
		}
	}
	return nil
}

type walTotals struct{ records, fsyncs int64 }

func (t walTotals) plus(d store.DurabilityInfo) walTotals {
	return walTotals{records: t.records + d.CommitRecords, fsyncs: t.fsyncs + d.Fsyncs}
}

// walCounters sums the WAL counters of every store replica the run has
// used.
func walCounters(r *replicas) walTotals {
	t := r.walClosed
	for _, st := range r.st {
		t = t.plus(st.Durability())
	}
	return t
}

// traceOp replays one op at every depth, recording a span per layer.
func traceOp(tr *tracer, r *replicas, in *inputs, w workload, o op, id int, chk *checker, ls *layerStats) error {
	switch o.Kind {
	case opMine:
		return traceMine(tr, r, w, o.Query, id, chk, ls)
	case opUpload:
		// An episode's fresh start is set-up, not traced.
		_, err := r.load(o.DB)
		return err
	default:
		return traceAppend(tr, r, in.batch(o.DB, o.Client, o.Batch), o.DB, id, ls)
	}
}

func traceMine(tr *tracer, r *replicas, w workload, q query, id int, chk *checker, ls *layerStats) error {
	t0 := tr.now()
	rec := serve(r.handler, "POST", "/v1/databases/"+q.DB+"/mine", q.body())
	srvSpan := tr.record(id, "server", t0)
	ls.mu.Lock()
	ls.mines++
	ls.serverMine.add(srvSpan.dur())
	ls.serverMineTotal += srvSpan.dur()
	ls.responseBytes += int64(rec.Body.Len())
	if rec.Code == http.StatusTooManyRequests {
		ls.shed++
	}
	ls.mu.Unlock()
	if rec.Code != http.StatusOK {
		return fmt.Errorf("server: status %d", rec.Code)
	}
	var sum summary
	var got answer
	var err error
	if w.name == "ingest-mine" {
		var pr response
		if pr, err = parseResponse(rec.Body.Bytes(), q.Stream); err == nil {
			sum = pr.sum
			got, err = decodeAnswer(rec.Body.Bytes(), q.Stream)
		}
	} else {
		sum, err = chk.check(q, rec.Body.Bytes())
	}
	if err != nil {
		return err
	}
	if sum.Cached {
		// The server answered from its cache: no deeper layer ran.
		ls.mu.Lock()
		ls.hits++
		ls.serverMineSelf.add(srvSpan.dur())
		ls.mu.Unlock()
		return nil
	}

	b0, _ := allocs()
	t1 := tr.now()
	res, err := runRepro(r.lib[q.DB].Snapshot(), q)
	reproSpan := tr.record(id, "repro", t1)
	b1, _ := allocs()
	if err != nil {
		return fmt.Errorf("repro: %v", err)
	}
	lib := libraryAnswer(res)
	if w.name == "ingest-mine" && lib != got {
		return fmt.Errorf("server %v, library replica %v", got, lib)
	}

	snap := r.st[q.DB].Current()
	_, m0 := allocs()
	t2 := tr.now()
	cr, err := runCore(snap, q)
	layer := "core"
	if cr.gapped {
		layer = "gapped"
	}
	kernSpan := tr.record(id, layer, t2)
	_, m1 := allocs()
	if err != nil {
		return fmt.Errorf("%s: %v", layer, err)
	}
	if cr.patterns != lib.Count {
		return fmt.Errorf("%s: %d patterns, library %d", layer, cr.patterns, lib.Count)
	}

	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.reproMines++
	ls.reproMine.add(reproSpan.dur())
	ls.reproAllocBytes += b1 - b0
	ls.kernelTotal += kernSpan.dur()
	if cr.gapped {
		ls.gappedMine.add(kernSpan.dur())
		ls.gappedAllocs += m1 - m0
	} else {
		ls.coreMine.add(kernSpan.dur())
		ls.coreAllocs += m1 - m0
		st := cr.stats
		ls.coreStats.nodes += st.NodesVisited
		ls.coreStats.insgrow += st.INSgrowCalls
		ls.coreStats.closure += st.ClosureChecks
		ls.coreStats.memo += st.MemoHits
		ls.coreStats.stolen += st.TasksStolen
		ls.coreStats.patterns += cr.patterns
		if st.FrontierPeak > ls.frontierPeak {
			ls.frontierPeak = st.FrontierPeak
		}
	}
	reproUnder := replayedUnder(srvSpan, reproSpan)
	ls.serverMineSelf.add(selfTime(srvSpan, []span{reproUnder}))
	ls.reproMineSelf.add(selfTime(reproSpan, []span{replayedUnder(reproSpan, kernSpan)}))
	return nil
}

func traceAppend(tr *tracer, r *replicas, recs []record, db string, id int, ls *layerStats) error {
	t0 := tr.now()
	rec := serve(r.handler, "POST", "/v1/databases/"+db+"/append", ndjson(recs))
	srvSpan := tr.record(id, "server", t0)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("server: status %d: %s", rec.Code, rec.Body.Bytes())
	}

	t1 := tr.now()
	_, err := r.lib[db].Append(toRepro(recs))
	reproSpan := tr.record(id, "repro", t1)
	if err != nil {
		return fmt.Errorf("repro: %v", err)
	}

	st := r.st[db]
	prev := st.Current()
	d0 := st.Durability()
	t2 := tr.now()
	snap, err := st.Append(toStore(recs), true)
	storeSpan := tr.record(id, "store", t2)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	d1 := st.Durability()

	// The index extension the store's append performed, replayed on its
	// own: the sequences that grew (upserts) are rebuilt, new ones added.
	// Under concurrent appends snap may also hold the other client's
	// batch; the replay then extends by both, as the store did.
	pdb, sdb := prev.DB(), snap.DB()
	var changed []int
	for i := range pdb.Seqs {
		if len(sdb.Seqs[i]) != len(pdb.Seqs[i]) {
			changed = append(changed, i)
		}
	}
	ix := prev.Index(false)
	t3 := tr.now()
	_ = ix.Extend(sdb, changed)
	seqSpan := tr.record(id, "seq", t3)

	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.reproAppend.add(reproSpan.dur())
	ls.serverAppendSelf.add(selfTime(srvSpan, []span{replayedUnder(srvSpan, reproSpan)}))
	ls.storeAppend.add(storeSpan.dur())
	ls.seqExtend.add(seqSpan.dur())
	if d1.SegmentGeneration != d0.SegmentGeneration {
		ls.checkpointAppend.add(storeSpan.dur())
	}
	if d1.SegmentGeneration != r.segSeen[db] {
		ls.checkpoints++
		r.segSeen[db] = d1.SegmentGeneration
	}
	// WAL bytes per record, from appends no other append or checkpoint
	// ran beside.
	if d1.SegmentGeneration == d0.SegmentGeneration && d1.Generation == d0.Generation+1 {
		ls.walBytes += d1.WALBytes - d0.WALBytes
		ls.walRecords += int64(len(recs))
	}
	return nil
}

// p50 reports a median, or 0 (noted in the log) when there are too few
// samples for one.
func p50(name string, l latencies) float64 {
	v, err := l.at(50)
	if err != nil {
		logf("%s: %v; reported as 0", name, err)
		return 0
	}
	return v
}

func perMine(v, mines int) float64 {
	if mines == 0 {
		return 0
	}
	return float64(v) / float64(mines)
}

func reportLayers(rep *report, ls *layerStats, ops int, w0, w1 walTotals, tr *tracer) {
	rep.set("server.mine_ms_p50", "ms", p50("server.mine_ms_p50", ls.serverMine))
	rep.set("server.mine_self_ms_p50", "ms", p50("server.mine_self_ms_p50", ls.serverMineSelf))
	rep.set("server.response_kb_per_mine", "KB", perMine(int(ls.responseBytes), ls.mines)/1024)
	rep.set("server.cache_hit_ratio", "ratio", perMine(ls.hits, ls.mines))
	rep.set("server.shed_429", "count", float64(ls.shed))
	rep.set("server.append_self_ms_p50", "ms", p50("server.append_self_ms_p50", ls.serverAppendSelf))
	logf("server: %d mines (%d cache hits), %d response bytes; mine %s", ls.mines, ls.hits, ls.responseBytes, ls.serverMine.describe())

	rep.set("repro.mine_ms_p50", "ms", p50("repro.mine_ms_p50", ls.reproMine))
	rep.set("repro.mine_self_ms_p50", "ms", p50("repro.mine_self_ms_p50", ls.reproMineSelf))
	rep.set("repro.alloc_kb_per_mine", "KB", perMine(int(ls.reproAllocBytes), ls.reproMines)/1024)
	rep.set("repro.append_ms_p50", "ms", p50("repro.append_ms_p50", ls.reproAppend))
	logf("repro: %d mines, TotalAlloc +%d B; append %s", ls.reproMines, ls.reproAllocBytes, ls.reproAppend.describe())

	c := ls.coreStats
	rep.set("core.mine_ms_p50", "ms", p50("core.mine_ms_p50", ls.coreMine))
	rep.set("core.nodes_visited", "count", perMine(c.nodes, ls.mines))
	rep.set("core.insgrow_calls", "count", perMine(c.insgrow, ls.mines))
	rep.set("core.closure_checks", "count", perMine(c.closure, ls.mines))
	rep.set("core.memo_hits", "count", perMine(c.memo, ls.mines))
	rep.set("core.patterns_per_node", "ratio", perMine(c.patterns, c.nodes))
	rep.set("core.topk_frontier_peak", "count", float64(ls.frontierPeak))
	rep.set("core.tasks_stolen", "count", perMine(c.stolen, ls.mines))
	rep.set("core.allocs_per_mine", "count", perMine(int(ls.coreAllocs), len(ls.coreMine)))
	logf("core: %d runs; in total %d nodes, %d insgrow calls, %d closure checks, %d memo hits over %d server mines; Mallocs +%d",
		len(ls.coreMine), c.nodes, c.insgrow, c.closure, c.memo, ls.mines, ls.coreAllocs)

	rep.set("gapped.mine_ms_p50", "ms", p50("gapped.mine_ms_p50", ls.gappedMine))
	rep.set("gapped.allocs_per_mine", "count", perMine(int(ls.gappedAllocs), len(ls.gappedMine)))

	rep.set("seq.index_build_ms", "ms", ls.seqBuildMS)
	rep.set("seq.index_extend_ms_p50", "ms", p50("seq.index_extend_ms_p50", ls.seqExtend))

	rep.set("store.append_ms_p50", "ms", p50("store.append_ms_p50", ls.storeAppend))
	p99, err := ls.storeAppend.at(99)
	if err != nil {
		logf("store.append_p99_ms: %v; reported as 0", err)
		p99 = 0
	}
	rep.set("store.append_p99_ms", "ms", p99)
	rep.set("store.checkpoints", "count", float64(ls.checkpoints))
	cp := 0.0
	if len(ls.checkpointAppend) > 0 {
		cp = median(ls.checkpointAppend)
	}
	rep.set("store.checkpoint_append_ms", "ms", cp)
	logf("store: append %s; %d checkpoints, checkpointing appends %s", ls.storeAppend.describe(), ls.checkpoints, ls.checkpointAppend.describe())

	fs, recs := w1.fsyncs-w0.fsyncs, w1.records-w0.records
	rep.set("wal.fsyncs", "count", float64(fs))
	rep.set("wal.records_per_fsync", "ratio", perMine(int(recs), int(fs)))
	rep.set("wal.bytes_per_record", "B", perMine(int(ls.walBytes), int(ls.walRecords)))
	logf("wal: %d fsyncs for %d WAL records; %d bytes for %d appended records outside checkpoints", fs, recs, ls.walBytes, ls.walRecords)

	share := 0.0
	if ls.serverMineTotal > 0 {
		share = float64(ls.kernelTotal) / float64(ls.serverMineTotal)
	}
	rep.set("trace.kernel_share", "ratio", share)
	logf("trace: %.1f spans per op; core+gapped spans are %.1f%% of server mine time", perMine(len(tr.spans), ops), 100*share)
}
