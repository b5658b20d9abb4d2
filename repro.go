package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/seq"
	"repro/internal/store"
)

// Format identifies an on-disk database encoding accepted by Load.
type Format int

// Supported formats. Each is its internal/seq format, which holds the
// grammar and the name table.
const (
	// Tokens: one sequence per line, whitespace-separated event names,
	// optional "label:" prefix, '#' comments.
	Tokens = Format(seq.FormatTokens)
	// Chars: one sequence per line, each byte a single-character event.
	Chars = Format(seq.FormatChars)
	// SPMF: the SPMF sequence format (integer items, -1/-2 separators)
	// restricted to single-item itemsets.
	SPMF = Format(seq.FormatSPMF)
)

// String returns the CLI/wire name of the format.
func (f Format) String() string { return seq.Format(f).String() }

// ParseFormat maps a wire/flag format name ("tokens", "chars", "spmf") to
// a Format; the empty string selects Tokens. Unknown names return an
// error wrapping ErrUnknownFormat.
func ParseFormat(name string) (Format, error) {
	if name == "" {
		return Tokens, nil
	}
	f, err := seq.ParseFormat(name)
	if err != nil {
		return 0, fmt.Errorf("repro: %w %q (want tokens, chars, spmf)", ErrUnknownFormat, name)
	}
	return Format(f), nil
}

func (f Format) internal() (seq.Format, error) {
	if f < Tokens || f > SPMF {
		return 0, fmt.Errorf("repro: %w %d", ErrUnknownFormat, int(f))
	}
	return seq.Format(f), nil
}

// Database is a growing sequence database and the handle on which mining
// runs. It is a thin shell over a snapshot store: every mutation
// (Add/Append) seals the new state as an immutable snapshot, and every
// mining run executes against one snapshot — so mining concurrently with
// appends is safe by construction, with no prepare step. All methods are
// safe for concurrent use.
//
// Mining uses a FastNext index by default: per-sequence successor tables
// that answer the paper's next(S, e, lowest) primitive in O(1) instead of
// O(log L), built lazily under a memory budget (sequences whose table
// would not fit fall back to binary search individually). Once the index
// has been built, appends maintain it incrementally in O(delta) instead of
// rebuilding it.
type Database struct {
	// st is swapped atomically when a replica re-bootstraps onto a fresh
	// lineage (see OpenReplica); for every other database it is set once.
	// Handles taken from it (snapshots, in-flight mines) stay valid across
	// a swap — they pin the old store's immutable state.
	st atomic.Pointer[store.Store]
}

func newDatabase(st *store.Store) *Database {
	d := &Database{}
	d.st.Store(st)
	return d
}

// store returns the database's current backing store.
func (d *Database) store() *store.Store { return d.st.Load() }

// swapStore replaces the backing store; only replica re-bootstraps do
// this.
func (d *Database) swapStore(st *store.Store) { d.st.Store(st) }

// NewDatabase returns an empty database.
func NewDatabase() *Database {
	return newDatabase(store.New(store.Options{}))
}

// Load reads a database from r in the given format. Errors are wrapped
// with the format name and leave the underlying cause (e.g. a
// seq.ParseError with line information) reachable through errors.As.
func Load(r io.Reader, format Format) (*Database, error) {
	db, err := load(r, format)
	if err != nil {
		return nil, fmt.Errorf("repro: load (format %s): %w", format, err)
	}
	return db, nil
}

// LoadFile reads a database from the named file. Errors are wrapped with
// the path and format so that callers juggling many inputs can tell which
// one failed; the underlying cause (os.ErrNotExist, parse errors with line
// numbers) stays reachable through errors.Is/As.
func LoadFile(path string, format Format) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("repro: load %s: %w", path, err)
	}
	defer f.Close()
	db, err := load(f, format)
	if err != nil {
		return nil, fmt.Errorf("repro: load %s (format %s): %w", path, format, err)
	}
	return db, nil
}

func load(r io.Reader, format Format) (*Database, error) {
	f, err := format.internal()
	if err != nil {
		return nil, err
	}
	db, err := seq.Parse(r, f)
	if err != nil {
		return nil, err
	}
	return newDatabase(store.FromDB(db, store.Options{})), nil
}

// Add appends a new sequence of event names under the given label (empty
// label auto-names the sequence "S<n>"), sealing the result as the next
// snapshot. To grow an existing sequence instead, use Append.
//
// Add cannot fail on in-memory databases. On a durable database a WAL
// write failure makes Add a no-op and the error is sticky: the next
// Append, Sync, or Close returns it. Code that must observe durability
// errors per batch should use Append.
func (d *Database) Add(label string, events []string) {
	_, _ = d.store().Append([]store.Record{{Label: label, Events: events}}, false)
}

// AddString appends a sequence where each byte of events is one
// single-character event — handy for examples and tests.
func (d *Database) AddString(label, events string) {
	names := make([]string, len(events))
	for i := 0; i < len(events); i++ {
		names[i] = events[i : i+1]
	}
	d.Add(label, names)
}

// Record is one unit of an Append batch: events to ingest under a label.
type Record struct {
	// Label names the sequence. A non-empty label matching an existing
	// sequence appends the events to that sequence (the live-trace case:
	// more events for a known session); otherwise a new sequence is
	// created under the label (empty = auto-named).
	Label string
	// Events are the event names to append, in order.
	Events []string
}

// Append ingests one batch of records atomically and returns the snapshot
// holding the result. Unlike Add, records whose label names an existing
// sequence extend that sequence in place (upsert semantics — the shape of
// live log/trace ingestion). The work is proportional to the batch, not
// the database: already-built indexes are maintained incrementally, and
// in-flight mining runs keep their own snapshot, unaffected.
//
// On a durable database the batch is written to the write-ahead log —
// and, under SyncAlways, fsynced — before this method returns: a nil
// error means the records survive a crash. An error means nothing was
// applied. Errors are impossible on in-memory databases.
func (d *Database) Append(records []Record) (*Snapshot, error) {
	batch := make([]store.Record, len(records))
	for i, r := range records {
		batch[i] = store.Record{Label: r.Label, Events: r.Events}
	}
	snap, err := d.store().Append(batch, true)
	if err != nil {
		if errors.Is(err, store.ErrDegraded) {
			// Re-sentinel into the public taxonomy; the root cause
			// (ENOSPC, EIO, ...) stays reachable through the chain.
			return nil, fmt.Errorf("repro: %w: %w", ErrDegraded, err)
		}
		if errors.Is(err, store.ErrNotPrimary) {
			// A replica: writes belong on the primary. The serving layer
			// maps this to 409 with the upstream's address.
			return nil, fmt.Errorf("repro: %w: %w", ErrNotPrimary, err)
		}
		return nil, err
	}
	return &Snapshot{s: snap}, nil
}

// Snapshot returns the current immutable snapshot of the database. A
// snapshot never changes: queries and mining runs against it observe one
// consistent state regardless of concurrent appends, and its Generation
// identifies that state (e.g. as a cache key). Database's own query and
// mining methods are shorthands for Snapshot().<Method>; grab a Snapshot
// explicitly when a multi-step read must see one consistent generation.
func (d *Database) Snapshot() *Snapshot {
	return &Snapshot{s: d.store().Current()}
}

// NumSequences returns the number of sequences added so far.
func (d *Database) NumSequences() int { return d.Snapshot().NumSequences() }

// NumEvents returns the number of distinct event names seen so far.
func (d *Database) NumEvents() int { return d.Snapshot().NumEvents() }

// Stats returns summary statistics of the database.
func (d *Database) Stats() Stats { return d.Snapshot().Stats() }

// Snapshot is one sealed generation of a Database: an immutable view that
// supports every query and mining operation. All methods are safe for
// concurrent use.
type Snapshot struct {
	s *store.Snapshot
}

// Generation returns the snapshot's generation number: 1 for the freshly
// created (or loaded) database, incremented by every Add/Append batch.
// Equal generations of the same Database mean identical contents.
func (s *Snapshot) Generation() uint64 { return s.s.Generation() }

// NumSequences returns the number of sequences in this generation.
func (s *Snapshot) NumSequences() int { return s.s.NumSequences() }

// NumEvents returns the number of distinct event names in this generation.
func (s *Snapshot) NumEvents() int { return s.s.NumEvents() }

// Warm builds the snapshot's default (FastNext) index eagerly. Purely a
// latency optimization: mining builds indexes lazily and concurrently-safe
// on first use anyway, but a warmed index also lets subsequent appends
// maintain it incrementally instead of paying a fresh lazy build later.
// Services call this once after upload; nothing ever requires it.
func (s *Snapshot) Warm() { s.s.Index(false) }

// Stats returns summary statistics of this generation in O(1): the store
// maintains them incrementally across appends, so stats never rescan the
// database.
func (s *Snapshot) Stats() Stats {
	sum := s.s.Summary()
	return Stats{
		NumSequences:   sum.NumSequences,
		DistinctEvents: sum.DistinctEvents,
		TotalLength:    sum.TotalLength,
		MinLength:      sum.MinLength,
		MaxLength:      sum.MaxLength,
		AvgLength:      sum.AvgLength,
	}
}

// Stats summarizes a database. It is also the "stats" object of the
// HTTP service's database reports.
type Stats struct {
	NumSequences   int     `json:"numSequences"`
	DistinctEvents int     `json:"distinctEvents"`
	TotalLength    int     `json:"totalLength"`
	MinLength      int     `json:"minLength"`
	MaxLength      int     `json:"maxLength"`
	AvgLength      float64 `json:"avgLength"`
}

// Options is one mining query. The library, the gsgrow CLI, the HTTP
// service and the experiment runner all express a mining run as this
// value: Validate holds every rule on it, Canonical is its result-cache
// key and Algorithm names what it runs. Its JSON tags are the wire
// spelling of the HTTP mine body and of the experiment spec's queries;
// the run-delivery hooks (Ctx, OnPattern, DiscardPatterns) have none. The
// zero value of every field but MinSupport (or TopK) selects the default.
type Options struct {
	// MinSupport is the repetitive-support threshold (>= 1). Ignored when
	// TopK is set.
	MinSupport int `json:"minSupport"`
	// Closed mines only closed patterns: those with no super-pattern of
	// equal support (the paper's CloGSgrow, or the closed top-k). Closure
	// is defined under SemanticsRepetitive and SemanticsCompressed, which
	// searches the closed set whether or not Closed is set.
	Closed bool `json:"closed"`
	// TopK >= 1 mines the K highest-support patterns by best-first search
	// instead of thresholding: patterns come back in non-increasing
	// support order, ties broken lexicographically, and MinSupport is
	// ignored. Top-k runs under SemanticsRepetitive only and rejects
	// MaxPatterns (k already bounds the result) and CollectInstances.
	// Intended for exploration; on dense data prefer a threshold.
	TopK int `json:"topK"`
	// MaxPatternLength bounds pattern length; 0 = unbounded.
	MaxPatternLength int `json:"maxPatternLength"`
	// MaxPatterns stops the run after that many patterns (0 = unbounded);
	// Result.Truncated reports whether the cap was hit. The cap is
	// deterministic at every worker count: the returned patterns are
	// exactly the first MaxPatterns of the sequential emission order.
	MaxPatterns int `json:"maxPatterns"`
	// CollectInstances attaches each pattern's leftmost support set.
	CollectInstances bool `json:"instances"`
	// Workers > 1 fans the mining DFS out over that many goroutines,
	// scheduled by work stealing: idle workers take untaken branches from
	// busy workers' subtrees, so deep skewed search spaces parallelize,
	// not just wide ones. Under TopK it shards the best-first frontier
	// instead, coordinated through the current k-th best support. The
	// result — patterns, supports, order, and the first-MaxPatterns prefix
	// under a budget — is identical to the sequential run regardless of
	// worker count or steal timing. More workers than cores, or tiny
	// databases whose whole mine takes microseconds, only add scheduling
	// overhead; see the package documentation for guidance.
	Workers int `json:"workers"`
	// Ctx, when non-nil, cancels the run: mining polls the context
	// periodically and, once it is done, stops and returns the patterns
	// found so far with Result.Truncated set (no error). Use it to bound
	// interactive queries or abort on client disconnect. A cancelled
	// sequential top-k run still returns true top patterns; a cancelled
	// parallel one returns its best candidates so far without that
	// guarantee.
	Ctx context.Context `json:"-"`
	// OnPattern, when non-nil, streams every pattern as it is emitted
	// (serialized across workers, in the order workers find them).
	// Returning false stops the run with Result.Truncated set. Two runs
	// decide their patterns only once the search is done, so their
	// patterns stream after it, exactly Result.Patterns in order: the
	// top-k search (ranked), and a run with Workers > 1 under MaxPatterns
	// (the budget keeps the first MaxPatterns of the sequential order,
	// which the parallel search knows only after its merge).
	OnPattern func(Pattern) bool `json:"-"`
	// DiscardPatterns suppresses accumulation in Result.Patterns — use with
	// OnPattern when streaming huge results to keep memory flat.
	DiscardPatterns bool `json:"-"`
	// Semantics selects the occurrence semantics of the run; the zero
	// value is SemanticsRepetitive, the paper's definition. See the
	// Semantics constants for the modes and their papers.
	Semantics Semantics `json:"semantics"`
	// MinGap and MaxGap bound the number of events strictly between
	// consecutive pattern events under SemanticsGapped
	// (0 <= MinGap <= MaxGap; both 0 mines contiguous substrings).
	// Setting either with any other semantics is an error.
	MinGap int `json:"minGap"`
	MaxGap int `json:"maxGap"`
	// CompressDelta is the support tolerance δ of SemanticsCompressed, in
	// [0, 1): a representative R covers a closed pattern P when P is a
	// subsequence of R and sup(R) >= (1-δ)·sup(P). 0 selects
	// DefaultCompressDelta. Setting it with any other semantics is an
	// error.
	CompressDelta float64 `json:"compressDelta"`
}

// Instance is one occurrence of a pattern: the sequence it lives in and
// the 1-based positions of its events (the landmark). It is also the HTTP
// service's wire form of an instance (mine and support responses).
type Instance struct {
	Sequence      string `json:"sequence"`      // label of the sequence
	SequenceIndex int    `json:"sequenceIndex"` // 0-based index into the database
	Positions     []int  `json:"positions"`     // 1-based landmark, strictly increasing
}

// Pattern is a mined pattern. It is also the HTTP service's wire form of
// a pattern: the elements of a mine response's "patterns" array and the
// "pattern" object of each NDJSON line.
type Pattern struct {
	// Events is the pattern as event names.
	Events []string `json:"events"`
	// Support is the pattern's support under the run's semantics. For the
	// default (repetitive) semantics that is the maximum number of
	// pairwise non-overlapping occurrences in the database.
	Support int `json:"support"`
	// Instances is the pattern's reported support set (for the default
	// semantics, the leftmost maximum set of non-overlapping occurrences);
	// nil unless Options.CollectInstances was set.
	Instances []Instance `json:"instances,omitempty"`
}

// Result is the output of Mine or MineClosed.
type Result struct {
	Patterns []Pattern
	// NumPatterns is the number of patterns emitted; it equals
	// len(Patterns) unless Options.DiscardPatterns was set.
	NumPatterns int
	// Truncated reports that the run stopped early: MaxPatterns was
	// reached, OnPattern returned false, or Options.Ctx was cancelled.
	Truncated bool
	// Elapsed is the wall-clock mining time.
	Elapsed time.Duration
	// WorkersRequested and WorkersEffective report the worker count asked
	// for and the count actually used after clamping to GOMAXPROCS
	// (output is identical either way; the clamp avoids oversubscription
	// overhead). Sequential runs report 1/1.
	WorkersRequested int
	WorkersEffective int
	// TopKFrontierPeak and TopKArenaBytes describe the best-first top-k
	// frontier: its high-water node count and the node-arena bytes
	// backing it (summed across worker shards). Both are 0 for threshold
	// mining, which keeps no frontier.
	TopKFrontierPeak int
	TopKArenaBytes   int64
}

// Mine runs the query opt against the current snapshot: every pattern
// with repetitive support at least opt.MinSupport (the paper's GSgrow),
// only the closed ones when opt.Closed is set (CloGSgrow), or the
// opt.TopK best when TopK is set.
func (d *Database) Mine(opt Options) (*Result, error) {
	return d.Snapshot().run(opt)
}

// MineClosed returns every closed frequent pattern: those with no
// super-pattern of equal support (the paper's CloGSgrow). The closed set
// is typically orders of magnitude smaller than the full frequent set and
// loses no information: every frequent pattern is a sub-pattern of some
// closed pattern with the same support. It is Mine with opt.Closed set.
func (d *Database) MineClosed(opt Options) (*Result, error) {
	return d.Snapshot().MineClosed(opt)
}

// MineTopK returns the k highest-support patterns (closed patterns when
// closed is set) of the current snapshot; it is Mine with
// Options{TopK: k, Closed: closed}.
func (d *Database) MineTopK(k int, closed bool) (*Result, error) {
	return d.Snapshot().run(Options{TopK: k, Closed: closed})
}

// Mine runs the query opt against this generation; see Database.Mine.
func (s *Snapshot) Mine(opt Options) (*Result, error) {
	return s.run(opt)
}

// MineClosed returns every closed frequent pattern of this generation (the
// paper's CloGSgrow); see Database.MineClosed.
func (s *Snapshot) MineClosed(opt Options) (*Result, error) {
	opt.Closed = true
	return s.run(opt)
}

// TopKOptions are the run-level options of MineTopKWith.
type TopKOptions struct {
	// MaxPatternLength bounds pattern length; 0 = unbounded.
	MaxPatternLength int
	// Workers is Options.Workers.
	Workers int
	// Ctx is Options.Ctx.
	Ctx context.Context
}

// MineTopKWith mines the k highest-support (closed) patterns of this
// generation; it is Mine with Options{TopK: k, Closed: closed} and the
// run-level options of opt.
func (s *Snapshot) MineTopKWith(k int, closed bool, opt TopKOptions) (*Result, error) {
	return s.run(Options{TopK: k, Closed: closed, MaxPatternLength: opt.MaxPatternLength, Workers: opt.Workers, Ctx: opt.Ctx})
}

// run executes one query against this snapshot: the best-first top-k
// search or the GSgrow kernel under the query's semantics. Every mode
// exports its patterns the same way and honours OnPattern and
// DiscardPatterns.
func (s *Snapshot) run(opt Options) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	var emit func(core.Pattern) bool
	if opt.OnPattern != nil {
		emit = func(p core.Pattern) bool { return opt.OnPattern(s.exportPattern(p)) }
	}
	var res *core.Result
	var err error
	switch {
	case opt.TopK > 0:
		res, err = core.MineTopKParallel(opt.Ctx, s.s.Index(false), opt.TopK, opt.Closed, opt.MaxPatternLength, opt.Workers)
		if err == nil && emit != nil {
			streamRanked(res, emit)
		}
	default:
		// A parallel budgeted run streams after the merge trim; keep the
		// (budget-bounded) patterns until then. Decided from the requested
		// worker count, so the stream is the same on any host.
		afterMerge := emit != nil && opt.Workers > 1 && opt.MaxPatterns > 0
		copt := core.Options{
			MinSupport:       opt.MinSupport,
			Closed:           opt.Closed,
			MaxPatternLength: opt.MaxPatternLength,
			MaxPatterns:      opt.MaxPatterns,
			CollectInstances: opt.CollectInstances,
			Ctx:              opt.Ctx,
			OnPattern:        emit,
			DiscardPatterns:  opt.DiscardPatterns,
			Semantics:        coreSemantics(opt),
			CompressDelta:    opt.CompressDelta,
		}
		if afterMerge {
			copt.OnPattern, copt.DiscardPatterns = nil, false
		}
		res, err = core.MineParallel(s.s.Index(false), copt, opt.Workers)
		if err == nil && afterMerge {
			streamRanked(res, emit)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("repro: %w: %v", ErrInvalidOptions, err)
	}
	out := &Result{
		NumPatterns:      res.NumPatterns,
		Truncated:        res.Stats.Truncated,
		Elapsed:          res.Stats.Duration,
		WorkersRequested: res.Stats.WorkersRequested,
		WorkersEffective: res.Stats.WorkersEffective,
		TopKFrontierPeak: res.Stats.FrontierPeak,
		TopKArenaBytes:   res.Stats.ArenaBytes,
	}
	if !opt.DiscardPatterns {
		out.Patterns = make([]Pattern, len(res.Patterns))
		for i, p := range res.Patterns {
			out.Patterns[i] = s.exportPattern(p)
		}
	}
	return out, nil
}

// streamRanked feeds a finished result (a top-k ranking, or a parallel
// budgeted run after its merge) through emit. A false return keeps the
// patterns delivered so far and marks the result truncated, as OnPattern
// does in the other modes.
func streamRanked(res *core.Result, emit func(core.Pattern) bool) {
	for i, p := range res.Patterns {
		if !emit(p) {
			res.Patterns = res.Patterns[:i+1]
			res.NumPatterns = i + 1
			res.Stats.Truncated = true
			return
		}
	}
}

func (s *Snapshot) exportPattern(p core.Pattern) Pattern {
	events := make([]string, len(p.Events))
	for j, e := range p.Events {
		events[j] = s.s.DB().Dict.Name(e)
	}
	out := Pattern{Events: events, Support: p.Support}
	if p.Instances != nil {
		out.Instances = s.exportInstances(p.Instances)
	}
	return out
}

func (s *Snapshot) exportInstances(set core.FullSet) []Instance {
	out := make([]Instance, len(set))
	for k, ins := range set {
		positions := make([]int, len(ins.Land))
		for j, l := range ins.Land {
			positions[j] = int(l)
		}
		out[k] = Instance{
			SequenceIndex: int(ins.Seq),
			Sequence:      s.s.DB().Label(int(ins.Seq)),
			Positions:     positions,
		}
	}
	return out
}

// Support computes the repetitive support of one pattern, given as event
// names, in the current snapshot. Unknown event names yield support 0.
func (d *Database) Support(pattern []string) int {
	return d.Snapshot().Support(pattern)
}

// Support computes the repetitive support of one pattern in this
// generation. Unknown event names yield support 0.
func (s *Snapshot) Support(pattern []string) int {
	return core.SupportOfNames(s.s.Index(false), pattern)
}

// SupportSet computes a maximum set of non-overlapping occurrences of
// pattern (the leftmost support set) in the current snapshot. Unknown
// event names yield an empty set.
func (d *Database) SupportSet(pattern []string) []Instance {
	return d.Snapshot().SupportSet(pattern)
}

// SupportSet computes a maximum set of non-overlapping occurrences of
// pattern (the leftmost support set) in this generation.
func (s *Snapshot) SupportSet(pattern []string) []Instance {
	ids, err := s.s.DB().EventSeq(pattern)
	if err != nil {
		return nil // an unknown event never occurs
	}
	return s.exportInstances(core.ComputeSupportSet(s.s.Index(false), ids))
}

// PerSequenceSupport returns, for each sequence, the number of
// non-overlapping occurrences of pattern inside it — the feature values
// the paper proposes for sequence classification (Section V). The slice is
// indexed by sequence index; its sum equals Support(pattern).
func (d *Database) PerSequenceSupport(pattern []string) []int {
	return d.Snapshot().PerSequenceSupport(pattern)
}

// PerSequenceSupport is Database.PerSequenceSupport against this
// generation.
func (s *Snapshot) PerSequenceSupport(pattern []string) []int {
	out := make([]int, s.s.NumSequences())
	for _, ins := range s.SupportSet(pattern) {
		out[ins.SequenceIndex]++
	}
	return out
}
