package main

import (
	"encoding/json"
	"fmt"

	"repro"
	"repro/internal/wal"
)

// query is one mine request of the fixed query list. The JSON form is the
// request body.
type query struct {
	Name       string `json:"-"`
	DB         string `json:"-"`
	Closed     bool   `json:"closed,omitempty"`
	MinSupport int    `json:"minSupport,omitempty"`
	TopK       int    `json:"topK,omitempty"`
	Workers    int    `json:"workers,omitempty"`
	MaxGap     int    `json:"maxGap,omitempty"`
	Semantics  string `json:"semantics,omitempty"`
	Stream     bool   `json:"stream,omitempty"`
}

func (q query) body() []byte {
	b, _ := json.Marshal(q)
	return b
}

// queryList is the fixed query list of mine-cold and mine-hot, in cycle
// order. The gapped query runs on its own small database: on Quest it
// takes 1.6 s even at minsup=40 with maxGap=2.
var queryList = []query{
	{Name: "all-10", DB: "quest", MinSupport: 10},
	{Name: "closed-10", DB: "quest", Closed: true, MinSupport: 10},
	{Name: "closed-20", DB: "quest", Closed: true, MinSupport: 20},
	{Name: "topk-100-w1", DB: "quest", Closed: true, TopK: 100, Workers: 1},
	{Name: "topk-100-w2", DB: "quest", Closed: true, TopK: 100, Workers: 2},
	{Name: "nonoverlap-10", DB: "quest", MinSupport: 10, Semantics: "nonoverlap"},
	{Name: "compressed-10", DB: "quest", MinSupport: 10, Semantics: "compressed"},
	{Name: "closed-15-ndjson", DB: "quest", Closed: true, MinSupport: 15, Stream: true},
	{Name: "gapped-10", DB: "gap", MinSupport: 10, Semantics: "gapped", MaxGap: 2},
}

// ingestQuery is the mine ingest-mine issues between appends.
var ingestQuery = query{Name: "topk-20", DB: "quest", Closed: true, TopK: 20, Workers: 1}

// An ingest-mine episode starts from a fresh upload of the Quest database.
// Client 0 appends ingestAppends batches; client 1 runs ingestOps ops,
// replacing every ingestMineEvery-th append with a mine, so both finish at
// about the same time. Episodes keep the work of every run identical: a
// time-bounded run on one ever-growing database would mine a larger
// database the faster the server appends (one 20 s window grows the base
// 60-fold and the server's RSS past 1 GB).
const (
	ingestAppends   = 384
	ingestOps       = 128
	ingestMineEvery = 8
)

// coldAppends: on mine-cold the client appends this many batches to its
// side database after each cycle's mines, in one run of appends and not
// one after each mine, so that nearly every append meets a server that
// has finished the last mine's work: about 1300 appends in a 25 s run.
const coldAppends = 36

// hotAppendEvery: on mine-hot each client appends one batch to its side
// database every 4th cycle: about 2000 appends in a 25 s run, so the
// append percentiles rest on many samples.
const hotAppendEvery = 4

// liveReset: a client re-uploads its side database before every 64th
// batch, so the side database, and the server's memory with it, stops
// growing with the number of appends a run completes.
const liveReset = 64

// liveDB names client c's side database.
func liveDB(c int) string { return fmt.Sprintf("live%d", c) }

// liveAppend returns the ops of client c's side-database append number b
// (counted over the whole run).
func liveAppend(c, b int) []op {
	a := op{Kind: opAppend, Client: c, DB: liveDB(c), Batch: b % liveReset}
	if b > 0 && b%liveReset == 0 {
		return []op{{Kind: opUpload, Client: c, DB: liveDB(c)}, a}
	}
	return []op{a}
}

type opKind int

const (
	opMine opKind = iota
	opAppend
	opUpload  // replace DB with its base upload
	opBarrier // wait for every client
)

// op is one step of a client's script.
type op struct {
	Kind   opKind
	Client int
	Query  query  // opMine
	DB     string // opAppend: target database
	Batch  int    // opAppend: the client's batch number on DB
}

func (o op) String() string {
	switch o.Kind {
	case opMine:
		return "mine " + o.Query.Name
	case opUpload:
		return "upload " + o.DB
	case opBarrier:
		return "barrier"
	}
	return fmt.Sprintf("append %s c%d b%d", o.DB, o.Client, o.Batch)
}

// workload is one traffic mix.
type workload struct {
	name    string
	clients int
	// cache is reprod's -cache flag: -1 disables the result cache.
	cache int
	// primed workloads mine every query once during set-up.
	primed bool
	// dbs are the databases uploaded during set-up.
	dbs []string
	// checkpointBytes is reprod's -checkpoint-bytes flag (0 = its default).
	checkpointBytes int64
	// fsyncAlways selects reprod's -fsync always; otherwise -fsync never.
	fsyncAlways bool
	// episodic workloads start every cycle together: the clients meet at a
	// barrier, where the decision to stop is taken for all of them.
	episodic bool
	// cycle returns client c's cycle number n; a client only stops
	// between cycles, so every run does whole cycles of the script.
	cycle func(c, n int) []op
	// tracedPerMinute is how many cycles a traced run replays per minute
	// of -seconds. The traced run does this fixed amount of work, not as
	// much as fits in the time, so its counts do not depend on speed; on
	// a 2-vCPU host it fills about the time asked for.
	tracedPerMinute int
}

// tracedCycles is the number of cycles a traced run of the given length
// replays.
func (w workload) tracedCycles(seconds int) int {
	return max(1, seconds*w.tracedPerMinute/60)
}

// ingestCheckpointBytes is small enough that every ingest-mine episode
// (about 120 KB of WAL) completes an automatic checkpoint; the default,
// 4 MiB, would complete none. The side databases of mine-cold and mine-hot
// are re-uploaded long before they reach any threshold.
const ingestCheckpointBytes = 64 << 10

var workloads = map[string]workload{
	// One client, cache off: every mine pays mining. The cycle's mines are
	// followed by coldAppends appends to the client's side database, giving
	// the append metrics samples without touching what is mined.
	"mine-cold": {
		name: "mine-cold", clients: 1, cache: -1, dbs: []string{"quest", "gap", "live0"}, tracedPerMinute: 24,
		cycle: func(c, n int) []op {
			var ops []op
			for _, q := range queryList {
				ops = append(ops, op{Kind: opMine, Client: c, Query: q})
			}
			for i := 0; i < coldAppends; i++ {
				ops = append(ops, liveAppend(c, n*coldAppends+i)...)
			}
			return ops
		},
	},
	// Two clients, default cache, every query primed: each timed mine is a
	// hit. The clients walk the list from different offsets, and each
	// appends one batch to its side database every 4th cycle; appends
	// there do not invalidate the mined databases' entries.
	"mine-hot": {
		name: "mine-hot", clients: 2, cache: 0, primed: true, dbs: []string{"quest", "gap", "live0", "live1"}, tracedPerMinute: 6000,
		cycle: func(c, n int) []op {
			var ops []op
			for i := range queryList {
				ops = append(ops, op{Kind: opMine, Client: c, Query: queryList[(i+4*c)%len(queryList)]})
			}
			if n%hotAppendEvery == hotAppendEvery-1 {
				ops = append(ops, liveAppend(c, n/hotAppendEvery)...)
			}
			return ops
		},
	},
	// Two clients append to the mined database itself; client 1 mines top-k
	// in place of every 8th append, missing the cache because each append
	// moves the snapshot generation. Each cycle is one episode.
	"ingest-mine": {
		name: "ingest-mine", clients: 2, cache: 0, dbs: []string{"quest"},
		checkpointBytes: ingestCheckpointBytes, fsyncAlways: true, episodic: true, tracedPerMinute: 36,
		cycle: func(c, n int) []op {
			ops := []op{{Kind: opBarrier, Client: c}}
			if c == 0 {
				ops = []op{{Kind: opUpload, Client: c, DB: "quest"}, {Kind: opBarrier, Client: c}}
				for b := 0; b < ingestAppends; b++ {
					ops = append(ops, op{Kind: opAppend, Client: c, DB: "quest", Batch: b})
				}
				return ops
			}
			b := 0
			for i := 0; i < ingestOps; i++ {
				if i%ingestMineEvery == ingestMineEvery-1 {
					ops = append(ops, op{Kind: opMine, Client: c, Query: ingestQuery})
					continue
				}
				ops = append(ops, op{Kind: opAppend, Client: c, DB: "quest", Batch: b})
				b++
			}
			return ops
		},
	},
}

// fsync is the workload's reprod -fsync flag.
func (w workload) fsync() string {
	if w.fsyncAlways {
		return "always"
	}
	return "never"
}

// syncPolicy is the library's form of the workload's fsync policy.
func (w workload) syncPolicy() repro.SyncPolicy {
	if w.fsyncAlways {
		return repro.SyncAlways
	}
	return repro.SyncNever
}

// walPolicy is the store's form of the workload's fsync policy.
func (w workload) walPolicy() wal.SyncPolicy {
	if w.fsyncAlways {
		return wal.SyncAlways
	}
	return wal.SyncNever
}

// workloadNames lists the workloads in the order the documentation gives.
var workloadNames = []string{"mine-cold", "mine-hot", "ingest-mine"}

// queries lists the distinct queries a workload mines.
func (w workload) queries() []query {
	if w.name == "ingest-mine" {
		return []query{ingestQuery}
	}
	return queryList
}
