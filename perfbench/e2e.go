package main

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

// setups is how many times a run sets the server up; setup_s is their
// median and the last one serves the timed phase.
const setups = 5

// calibReps is how many passes of the calibration loop a run times before
// set-up and again after the timed phase. A run whose two readings differ
// by more than calibTolerance, the timing metrics' bound, is flagged in
// the log: the host changed speed while it ran.
const (
	calibReps      = 15
	calibTolerance = 0.25
)

// setUp starts a server on a fresh data directory, uploads the workload's
// databases and, on primed workloads, mines every query once.
func setUp(w workload, up map[string][]byte, chk *checker, bin, dir string, i int) (*serverProc, time.Duration, error) {
	data := subdir(dir, fmt.Sprintf("data-%d", i))
	start := time.Now()
	s, err := startServer(bin, data, subdir(dir, "reprod.log"), w)
	if err != nil {
		return nil, 0, err
	}
	for _, db := range w.dbs {
		if err := s.upload(db, up[db]); err != nil {
			s.kill()
			return nil, 0, err
		}
	}
	if w.primed {
		for _, q := range w.queries() {
			code, body, err := s.do("POST", "/v1/databases/"+q.DB+"/mine", q.body())
			if err == nil && code != 200 {
				err = fmt.Errorf("prime %s: status %d: %.200s", q.Name, code, body)
			}
			if err == nil {
				_, err = chk.check(q, body)
			}
			if err != nil {
				s.kill()
				return nil, 0, err
			}
		}
	}
	return s, time.Since(start), nil
}

func runEndToEnd(w workload, in *inputs, seconds int, bin, dir string) (result, error) {
	rep := newReport()
	up := in.uploads()
	expected, err := expectedAnswers(w, up)
	if err != nil {
		return result{}, err
	}

	hostBefore := calibrate(calibReps)

	var setupTimes []float64
	var s *serverProc
	for i := 0; i < setups; i++ {
		var d time.Duration
		if s, d, err = setUp(w, up, newChecker(expected), bin, dir, i); err != nil {
			return result{}, err
		}
		setupTimes = append(setupTimes, d.Seconds())
		if i < setups-1 {
			if err := s.stop(); err != nil {
				return result{}, err
			}
			os.RemoveAll(s.dataDir)
		}
	}
	defer func() {
		if s != nil {
			s.kill()
		}
	}()
	rep.set("setup_s", "s", median(setupTimes))
	logf("setup: %d set-ups, median %.4f s (%v)", setups, median(setupTimes), setupTimes)

	before, err := s.counters()
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	deadline := start.Add(time.Duration(seconds) * time.Second)
	bar := newBarrier(w.clients, deadline)
	var done atomic.Int64
	clients := make([]*loadClient, w.clients)
	for c := range clients {
		clients[c] = newLoadClient(c, s.base, w, in, up, bar, &done, expected)
	}
	smp := &sampler{pid: s.cmd.Process.Pid, done: &done}
	clients[0].afterCycle = smp.sample
	smp.sample()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) { defer wg.Done(); c.run(deadline) }(c)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	after, err := s.counters()
	if err != nil {
		return result{}, err
	}
	hostAfter := calibrate(calibReps)
	logf("host calibration: %.3f ms before set-up, %.3f ms after the timed phase", hostBefore, hostAfter)
	if r := hostAfter / hostBefore; r > 1+calibTolerance || r < 1/(1+calibTolerance) {
		logf("HOST SPEED CHANGED: the calibration loop took %.2f times as long after the timed phase as before set-up; this run's timings are suspect", r)
	}

	var mineLat, appendLat latencies
	var mines, appends, uploads, records, attempted, failed int
	for _, c := range clients {
		r := c.result
		mineLat = append(mineLat, r.mineLat...)
		appendLat = append(appendLat, r.appendLat...)
		mines += r.mines
		appends += r.appends
		uploads += r.uploads
		records += r.appendRecords
		attempted += r.attempted
		failed += r.failed
		rep.fail(r.err)
	}
	ops := mines + appends + uploads
	logf("timed phase: %.3f s, %d clients, %d cycles, %d ops (%d mines, %d appends of %d records, %d uploads), %d failed",
		elapsed, w.clients, clients[0].result.cycles, ops, mines, appends, records, uploads, failed)
	logf("mine latency: %s", mineLat.describe())
	logf("append latency: %s", appendLat.describe())

	var minePerS, recordsPerS float64
	for _, c := range clients {
		cs := append([]float64(nil), c.result.cycleSeconds...)
		logf("client %d: %d cycles, cycle time p25 %.4f s, p50 %.4f s, p75 %.4f s", c.id, len(cs), pctl(cs, 25), pctl(cs, 50), pctl(cs, 75))
		minePerS += c.result.cycleRate(c.result.mines)
		recordsPerS += c.result.cycleRate(c.result.appendRecords)
	}
	logf("rates: %.2f mines/s, %.1f records/s over the whole phase; per-cycle medians %.2f and %.1f",
		float64(mines)/elapsed, float64(records)/elapsed, minePerS, recordsPerS)
	rep.set("mine_per_s", "1/s", minePerS)
	rep.set("append_records_per_s", "1/s", recordsPerS)
	for _, m := range []struct {
		name string
		l    latencies
		p    float64
	}{{"mine_p50_ms", mineLat, 50}, {"mine_p90_ms", mineLat, 90}, {"append_p50_ms", appendLat, 50}, {"append_p90_ms", appendLat, 90}} {
		v, err := m.l.at(m.p)
		rep.fail(err)
		rep.set(m.name, "ms", v)
	}

	ticks := after.CPUTicks - before.CPUTicks
	alloc := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	cpuPerOp := median(append([]float64(nil), smp.cpuPerOpMS...))
	rssMB := median(append([]float64(nil), smp.peakRSSMB...))
	rep.set("server_cpu_ms_per_op", "ms", cpuPerOp)
	logf("server cpu per op: median %.4f ms over %d groups of cycles (whole phase %.4f ms)", cpuPerOp, len(smp.cpuPerOpMS), float64(ticks)*float64(clockTick/time.Millisecond)/float64(ops))
	rep.set("server_alloc_kb_per_op", "KB", float64(alloc)/1024/float64(ops))
	rep.set("server_peak_rss_mb", "MB", rssMB)
	logf("server cpu: %d ticks of %v over %d ops", ticks, clockTick, ops)
	logf("server allocation: TotalAlloc +%d B, Mallocs +%d (%.1f per op) over %d ops", alloc, mallocs, float64(mallocs)/float64(ops), ops)
	logf("server peak rss: median %.2f MB over %d groups of cycles; VmHWM since the last group %d kB", rssMB, len(smp.peakRSSMB), after.VmHWMKB)

	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	logf("result cache: +%d hits, +%d misses over %d mines", hits, misses, mines)
	switch {
	case w.primed:
		rep.check(hits == int64(mines) && misses == 0, "mine-hot hit ratio: %d hits, %d misses for %d mines, want all hits", hits, misses, mines)
	case w.cache < 0:
		rep.check(hits == 0, "mine-cold hit ratio: %d hits, want 0", hits)
	}

	// Storage: every database's persistence block, then the data directory
	// against the user data it holds. Under fsync=always (ingest-mine) each
	// commit batch is one WAL fsync. Counters are per store, and an upload replaces the
	// store, so they cover the appends since the database's last upload.
	user := int64(0)
	for _, db := range w.dbs {
		a := after.DBs[db].Persistence
		logf("persistence %s: commitBatches %d commitRecords %d walBytes %d walRecords %d segmentGeneration %d (snapshot generation %d)",
			db, a.CommitBatches, a.CommitRecords, a.WALBytes, a.WALRecords, a.SegmentGeneration, after.DBs[db].SnapshotGeneration)
		rep.check(a.CheckpointError == "" && !a.Degraded, "database %s: checkpoint error %q, degraded %v", db, a.CheckpointError, a.Degraded)
		switch db {
		case "quest":
			user += userBytes(in.quest)
		case "gap":
			user += userBytes(in.gap)
		default:
			user += userBytes(in.live)
		}
	}
	for _, c := range clients {
		for db, n := range c.result.acked {
			for b := 0; b < n; b++ {
				user += userBytes(in.batch(db, c.id, b))
			}
		}
	}
	disk, err := dirBytes(s.dataDir)
	if err != nil {
		return result{}, err
	}
	rep.set("disk_bytes_per_user_byte", "ratio", float64(disk)/float64(user))
	logf("storage: %d bytes in the data directory for %d bytes of user data", disk, user)

	if w.name == "ingest-mine" {
		rep.fail(verifyIngest(w, in, up, clients, s, bin, dir))
		s = nil // verifyIngest stopped it
	} else {
		rep.fail(verifyLive(in, clients, after))
	}
	return rep.finish(attempted, failed), nil
}

// verifyLive checks that each client's side database holds exactly the
// batches acknowledged since its last upload.
func verifyLive(in *inputs, clients []*loadClient, after counters) error {
	for _, c := range clients {
		name := liveDB(c.id)
		db, err := loadLibrary(tokens(in.live))
		if err != nil {
			return err
		}
		n := c.result.acked[name]
		for b := 0; b < n; b++ {
			if _, err := db.Append(toRepro(in.batch(name, c.id, b))); err != nil {
				return err
			}
		}
		got, want := after.DBs[name], db.Stats()
		if got.Stats.NumSequences != want.NumSequences || got.Stats.TotalLength != want.TotalLength || got.SnapshotGeneration != uint64(1+n) {
			return fmt.Errorf("%s: server has %d sequences, %d events, generation %d; acknowledged appends give %d, %d, %d",
				name, got.Stats.NumSequences, got.Stats.TotalLength, got.SnapshotGeneration, want.NumSequences, want.TotalLength, 1+n)
		}
	}
	return nil
}

// verifyIngest checks every mine of an ingest-mine run against the library
// on the database state that mine saw, then kills the server, restarts it
// from the data directory and checks that every acknowledged record of the
// last episode came back and the final mine matches the library on the
// rebuilt database.
func verifyIngest(w workload, in *inputs, up map[string][]byte, clients []*loadClient, s *serverProc, bin, dir string) error {
	err := verifyIngestMines(in, up, clients[1].result.ingestMines)
	if err != nil {
		s.kill()
		return err
	}
	db, err := loadLibrary(up["quest"])
	if err != nil {
		s.kill()
		return err
	}
	acked := [2]int{clients[0].result.acked["quest"], clients[1].result.acked["quest"]}
	for c, n := range acked {
		for b := 0; b < n; b++ {
			if _, err := db.Append(toRepro(in.batch("quest", c, b))); err != nil {
				s.kill()
				return err
			}
		}
	}

	// Crash and recover: every acknowledged append was fsynced.
	s.kill()
	t := time.Now()
	s2, err := startServer(bin, s.dataDir, subdir(dir, "reprod.log"), w)
	if err != nil {
		return err
	}
	defer s2.stop()
	got, err := s2.counters()
	if err != nil {
		return err
	}
	logf("restart: recovered in %.3f s", time.Since(t).Seconds())
	rec, want := got.DBs["quest"], db.Stats()
	wantGen := uint64(1 + acked[0] + acked[1])
	if rec.Stats.NumSequences != want.NumSequences || rec.Stats.TotalLength != want.TotalLength || rec.SnapshotGeneration != wantGen {
		return fmt.Errorf("after restart: %d sequences, %d events, generation %d; acknowledged appends give %d, %d, %d",
			rec.Stats.NumSequences, rec.Stats.TotalLength, rec.SnapshotGeneration, want.NumSequences, want.TotalLength, wantGen)
	}
	code, body, err := s2.do("POST", "/v1/databases/quest/mine", ingestQuery.body())
	if err != nil || code != 200 {
		return fmt.Errorf("final mine after restart: %d %v", code, err)
	}
	gotAns, err := decodeAnswer(body, false)
	if err != nil {
		return err
	}
	res, err := runRepro(db.Snapshot(), ingestQuery)
	if err != nil {
		return err
	}
	if wantAns := libraryAnswer(res); gotAns != wantAns {
		return fmt.Errorf("final mine after restart: got %v, library %v", gotAns, wantAns)
	}
	logf("restart: %d acknowledged batches of the last episode (%d sequences, %d events) recovered; final mine matches the library",
		acked[0]+acked[1], want.NumSequences, want.TotalLength)
	return nil
}

// verifyIngestMines checks the mines of ingest-mine. Within an episode
// the database a mine saw is the upload plus a prefix of each client's
// batches: the mining client's own acknowledged batches, and as many of
// the other client's as the snapshot generation says (generation 1 is the
// upload, each batch adds one). Mines that saw the same prefixes share one
// library run.
func verifyIngestMines(in *inputs, up map[string][]byte, mines []ingestMine) error {
	type prefix struct{ own, other int }
	byPrefix := map[prefix][]ingestMine{}
	for _, m := range mines {
		other := int(m.generation) - 1 - m.ownBatches
		if other < 0 || other > ingestAppends {
			return fmt.Errorf("ingest mine in episode %d at generation %d: inconsistent with %d own batches", m.episode, m.generation, m.ownBatches)
		}
		p := prefix{m.ownBatches, other}
		byPrefix[p] = append(byPrefix[p], m)
	}
	keys := make([]prefix, 0, len(byPrefix))
	for p := range byPrefix {
		keys = append(keys, p)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].own != keys[b].own {
			return keys[a].own < keys[b].own
		}
		return keys[a].other < keys[b].other
	})
	var db *repro.Database
	applied := [2]int{}
	for i, p := range keys {
		if i == 0 || p.own != keys[i-1].own {
			var err error
			if db, err = loadLibrary(up["quest"]); err != nil {
				return err
			}
			applied = [2]int{}
		}
		for c, n := range [2]int{p.other, p.own} {
			for ; applied[c] < n; applied[c]++ {
				if _, err := db.Append(toRepro(in.batch("quest", c, applied[c]))); err != nil {
					return err
				}
			}
		}
		res, err := runRepro(db.Snapshot(), ingestQuery)
		if err != nil {
			return err
		}
		want := libraryAnswer(res)
		for _, m := range byPrefix[p] {
			if m.got != want {
				return fmt.Errorf("ingest mine in episode %d at generation %d: got %v, library %v", m.episode, m.generation, m.got, want)
			}
		}
	}
	logf("ingest mines: %d verified against %d library runs at the database states they saw", len(mines), len(keys))
	return nil
}

// sampleGroup is the shortest stretch of whole cycles one server sample
// covers: at 10 ms per clock tick, 2 s of one busy core is 200 ticks.
const sampleGroup = 2 * time.Second

// sampler reads the server's CPU time and peak RSS at the end of client
// 0's cycles. Over each group of whole cycles lasting at least
// sampleGroup it records the CPU per completed op and the peak RSS, then
// resets the kernel's peak-RSS mark, so one garbage-collection peak
// cannot set the whole run's figure.
type sampler struct {
	pid  int
	done *atomic.Int64

	start      time.Time
	ticks, ops int64
	cpuPerOpMS []float64
	peakRSSMB  []float64
}

func (s *sampler) sample() {
	now, ops := time.Now(), s.done.Load()
	if !s.start.IsZero() && now.Sub(s.start) < sampleGroup {
		return
	}
	ticks, err := cpuTicks(s.pid)
	if err != nil {
		return
	}
	if !s.start.IsZero() && ops > s.ops {
		s.cpuPerOpMS = append(s.cpuPerOpMS, float64(ticks-s.ticks)*float64(clockTick/time.Millisecond)/float64(ops-s.ops))
		if kb, err := peakRSSKB(s.pid); err == nil {
			s.peakRSSMB = append(s.peakRSSMB, float64(kb)/1024)
		}
	}
	resetPeakRSS(s.pid)
	s.start, s.ticks, s.ops = now, ticks, ops
}
