// Package harness runs the paper's evaluation (Section IV) from one
// experiment spec: Table I's support semantics, the min_sup sweeps of
// Figures 2-4, the database-size and sequence-length sweeps of Figures 5
// and 6, the JBoss case study of Section IV-B and the top-k scaling grid
// are all rows of a Spec. Run mines every row through repro.Options, the
// query the library, the CLI and the HTTP service share, and records one
// CSV line per repeat; Render turns that CSV into the markdown tables of
// EXPERIMENTS.md.
package harness

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro"
	"repro/internal/datagen"
	"repro/internal/seq"
)

// Spec is an experiment plan: every row runs Repeat times (0 selects 1).
type Spec struct {
	Repeat int   `json:"repeat"`
	Rows   []Row `json:"rows"`
}

// Row is one point of one series of one figure: a query on a dataset.
// The old runners' settings are data here: GSgrow's cut-off is the
// absence of an "all" row at that x, and its pattern budget is the
// query's maxPatterns.
type Row struct {
	Figure  string        `json:"figure"`
	Series  string        `json:"series"`
	X       float64       `json:"x"` // the value the figure plots
	Dataset Dataset       `json:"dataset"`
	Query   repro.Options `json:"query"`
	// Density > 0 applies the case-study post-processing (Section IV-B)
	// at that density threshold to the mined patterns.
	Density float64 `json:"density,omitempty"`
}

// Dataset names exactly one generated dataset by its datagen parameters.
type Dataset struct {
	Quest   *datagen.QuestParams   `json:"quest,omitempty"`
	Gazelle *datagen.GazelleParams `json:"gazelle,omitempty"`
	TCAS    *datagen.TCASParams    `json:"tcas,omitempty"`
	JBoss   *datagen.JBossParams   `json:"jboss,omitempty"`
}

func (d Dataset) check() error {
	set := 0
	for _, p := range []bool{d.Quest != nil, d.Gazelle != nil, d.TCAS != nil, d.JBoss != nil} {
		if p {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("harness: a dataset needs exactly one of quest, gazelle, tcas, jboss (got %d)", set)
	}
	return nil
}

// generate builds the dataset and its label for the CSV.
func (d Dataset) generate() (*seq.DB, string, error) {
	switch {
	case d.Quest != nil:
		db, err := datagen.Quest(*d.Quest)
		return db, d.Quest.Name(), err
	case d.Gazelle != nil:
		db, err := datagen.Gazelle(*d.Gazelle)
		return db, sized("Gazelle", d.Gazelle.NumSequences), err
	case d.TCAS != nil:
		db, err := datagen.TCAS(*d.TCAS)
		return db, sized("TCAS", d.TCAS.NumTraces), err
	default:
		db, err := datagen.JBoss(*d.JBoss)
		return db, sized("JBoss", d.JBoss.NumTraces), err
	}
}

func sized(name string, n int) string {
	if n == 0 {
		return name
	}
	return fmt.Sprintf("%s(%d)", name, n)
}

// ParseSpec decodes a spec, rejecting unknown fields (queries included)
// so a typo in an experiment file fails loudly instead of silently
// running a default.
func ParseSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("harness: bad spec: %w", err)
	}
	return s, nil
}

// Record is one run of one row: a line of the results CSV.
type Record struct {
	Figure, Series   string
	X                float64
	Dataset          string
	Query            string // the query's repro.Options.Canonical()
	Repeat           int    // 1-based
	Elapsed          time.Duration
	Patterns         int
	Truncated        bool
	WorkersRequested int
	WorkersEffective int
	FrontierPeak     int   // top-k frontier high-water mark
	ArenaBytes       int64 // top-k node-arena bytes
	// Post is the case-study report of a post-processed row
	// (CaseStudyReport.Summary), empty for every other row.
	Post string
}

// dataset is a generated dataset loaded for mining.
type dataset struct {
	name string
	db   *seq.DB // the generator's database: its event IDs rank case-study ties
	snap *repro.Snapshot
}

// Run runs every row of spec, in order, and hands each run's record to
// emit. Each distinct dataset is generated once, loaded into a
// repro.Database through its token form as a user's upload would be, and
// dropped after the last row that uses it. The whole spec is checked
// before anything runs.
func Run(spec Spec, emit func(Record) error) error {
	keys := make([]string, len(spec.Rows))
	lastUse := map[string]int{}
	for i, row := range spec.Rows {
		err := row.Dataset.check()
		if err == nil {
			err = row.Query.Validate()
		}
		if err == nil && (row.Density < 0 || row.Density >= 1) {
			err = fmt.Errorf("density must be in [0, 1), got %g", row.Density)
		}
		if err != nil {
			return fmt.Errorf("harness: row %d (%s/%s): %w", i, row.Figure, row.Series, err)
		}
		key, _ := json.Marshal(row.Dataset) // pointers to plain structs: cannot fail
		keys[i] = string(key)
		lastUse[keys[i]] = i
	}
	loaded := map[string]*dataset{}
	for i, row := range spec.Rows {
		d, ok := loaded[keys[i]]
		if !ok {
			var err error
			if d, err = load(row.Dataset); err != nil {
				return err
			}
			loaded[keys[i]] = d
		}
		if lastUse[keys[i]] == i {
			delete(loaded, keys[i])
		}
		for rep := 1; rep <= max(spec.Repeat, 1); rep++ {
			rec, err := runRow(d, row, rep)
			if err != nil {
				return fmt.Errorf("harness: %s/%s at x=%g: %w", row.Figure, row.Series, row.X, err)
			}
			if err := emit(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func load(ds Dataset) (*dataset, error) {
	db, name, err := ds.generate()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := seq.Write(&buf, db, seq.FormatTokens); err != nil {
		return nil, err
	}
	pub, err := repro.Load(&buf, repro.Tokens)
	if err != nil {
		return nil, err
	}
	snap := pub.Snapshot()
	snap.Warm()
	return &dataset{name: name, db: db, snap: snap}, nil
}

func runRow(d *dataset, row Row, rep int) (Record, error) {
	opt := row.Query
	opt.DiscardPatterns = row.Density == 0
	res, err := d.snap.Mine(opt)
	if err != nil {
		return Record{}, err
	}
	rec := Record{
		Figure: row.Figure, Series: row.Series, X: row.X, Dataset: d.name,
		Query: opt.Canonical(), Repeat: rep, Elapsed: res.Elapsed,
		Patterns: res.NumPatterns, Truncated: res.Truncated,
		WorkersRequested: res.WorkersRequested, WorkersEffective: res.WorkersEffective,
		FrontierPeak: res.TopKFrontierPeak, ArenaBytes: res.TopKArenaBytes,
	}
	if row.Density > 0 {
		cs, err := caseStudy(d.db, res, row.Density)
		if err != nil {
			return Record{}, err
		}
		rec.Post = cs.Summary()
	}
	return rec, nil
}

var csvHeader = []string{"figure", "series", "x", "dataset", "query", "repeat", "elapsed_ns", "patterns",
	"truncated", "workers_requested", "workers_effective", "frontier_peak", "arena_bytes", "post"}

// CSVWriter writes records as CSV lines under a header, flushing each
// line so a long run leaves every finished row on disk.
type CSVWriter struct{ w *csv.Writer }

// NewCSVWriter writes the header and returns the writer.
func NewCSVWriter(w io.Writer) (*CSVWriter, error) {
	cw := &CSVWriter{csv.NewWriter(w)}
	return cw, cw.flush(csvHeader)
}

// Write appends one record.
func (c *CSVWriter) Write(r Record) error {
	return c.flush([]string{r.Figure, r.Series, strconv.FormatFloat(r.X, 'g', -1, 64), r.Dataset, r.Query,
		strconv.Itoa(r.Repeat), strconv.FormatInt(r.Elapsed.Nanoseconds(), 10), strconv.Itoa(r.Patterns),
		strconv.FormatBool(r.Truncated), strconv.Itoa(r.WorkersRequested), strconv.Itoa(r.WorkersEffective),
		strconv.Itoa(r.FrontierPeak), strconv.FormatInt(r.ArenaBytes, 10), r.Post})
}

func (c *CSVWriter) flush(fields []string) error {
	if err := c.w.Write(fields); err != nil {
		return err
	}
	c.w.Flush()
	return c.w.Error()
}

// ReadCSV parses what CSVWriter wrote.
func ReadCSV(r io.Reader) ([]Record, error) {
	lines, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("harness: read csv: %w", err)
	}
	if len(lines) == 0 || fmt.Sprint(lines[0]) != fmt.Sprint(csvHeader) {
		return nil, fmt.Errorf("harness: csv header is not %v", csvHeader)
	}
	out := make([]Record, 0, len(lines)-1)
	for n, f := range lines[1:] {
		var ints [7]int64
		for i, col := range []int{5, 6, 7, 9, 10, 11, 12} {
			if ints[i], err = strconv.ParseInt(f[col], 10, 64); err != nil {
				return nil, fmt.Errorf("harness: csv line %d: %s: %w", n+2, csvHeader[col], err)
			}
		}
		x, errX := strconv.ParseFloat(f[2], 64)
		trunc, errT := strconv.ParseBool(f[8])
		if errX != nil || errT != nil {
			return nil, fmt.Errorf("harness: csv line %d: bad x or truncated", n+2)
		}
		out = append(out, Record{
			Figure: f[0], Series: f[1], X: x, Dataset: f[3], Query: f[4],
			Repeat: int(ints[0]), Elapsed: time.Duration(ints[1]), Patterns: int(ints[2]), Truncated: trunc,
			WorkersRequested: int(ints[3]), WorkersEffective: int(ints[4]),
			FrontierPeak: int(ints[5]), ArenaBytes: ints[6], Post: f[13],
		})
	}
	return out, nil
}

// CheckShape validates the qualitative claims the paper's figures make
// about GSgrow (series "all") and CloGSgrow (series "closed"); it returns
// the violations (empty = all claims hold):
//
//   - closed count <= all count at every point where GSgrow completed;
//   - on one dataset, the closed count does not fall as x (min_sup)
//     drops;
//   - CloGSgrow completed everywhere (it never hits a budget).
func CheckShape(records []Record) []string {
	var out []string
	type point struct{ fig, ds string }
	all := map[string]Record{}
	for _, r := range records {
		if r.Series == "all" {
			all[fmt.Sprintf("%s|%g|%s", r.Figure, r.X, r.Dataset)] = r
		}
	}
	prev := map[point]Record{}
	for _, r := range records {
		if r.Series != "closed" || r.Repeat > 1 {
			continue
		}
		at := fmt.Sprintf("%s at %g", r.Figure, r.X)
		if a, ok := all[fmt.Sprintf("%s|%g|%s", r.Figure, r.X, r.Dataset)]; ok && !a.Truncated && r.Patterns > a.Patterns {
			out = append(out, fmt.Sprintf("%s: closed count %d exceeds all count %d", at, r.Patterns, a.Patterns))
		}
		if r.Truncated {
			out = append(out, fmt.Sprintf("%s: closed run hit its budget", at))
		}
		k := point{r.Figure, r.Dataset}
		if p, ok := prev[k]; ok && p.X > r.X && p.Patterns > r.Patterns {
			out = append(out, fmt.Sprintf("%s: closed count decreased (%d -> %d) as min_sup dropped", at, p.Patterns, r.Patterns))
		}
		prev[k] = r
	}
	return out
}
