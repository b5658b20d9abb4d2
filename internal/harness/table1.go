package harness

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/baseline"
	"repro/internal/seq"
)

// Table1Row is one support-definition row of the semantics comparison.
type Table1Row struct {
	Definition string
	SupAB      string // support of AB under this definition
	SupCD      string // support of CD under this definition
	Note       string
}

// Table1Result reproduces the quantitative content of the paper's Table I
// discussion on Example 1.1 (S1 = AABCDABB, S2 = ABCD), plus the larger
// introduction example (50×CABABABABABD + 50×ABCD).
type Table1Result struct {
	Rows []Table1Row
	// Larger example: repetitive vs sequence support of AB and CD.
	LargeRepetitiveAB, LargeRepetitiveCD int
	LargeSequenceAB, LargeSequenceCD     int
}

// Table1 computes every support number the paper derives on Example 1.1.
func Table1() (*Table1Result, error) {
	db := seq.NewDB()
	db.AddChars("S1", "AABCDABB")
	db.AddChars("S2", "ABCD")
	pub, err := repro.Load(strings.NewReader("S1:AABCDABB\nS2:ABCD\n"), repro.Chars)
	if err != nil {
		return nil, err
	}
	snap := pub.Snapshot()
	ab, err := db.EventSeq([]string{"A", "B"})
	if err != nil {
		return nil, err
	}
	cd, err := db.EventSeq([]string{"C", "D"})
	if err != nil {
		return nil, err
	}
	s1 := db.Seqs[0]

	res := &Table1Result{}
	add := func(def, supAB, supCD, note string) {
		res.Rows = append(res.Rows, Table1Row{def, supAB, supCD, note})
	}
	add("repetitive support (this paper)",
		fmt.Sprint(snap.Support([]string{"A", "B"})), fmt.Sprint(snap.Support([]string{"C", "D"})),
		"max non-overlapping instances")
	add("sequential pattern mining [1]",
		fmt.Sprint(baseline.SequenceSupport(db, ab)), fmt.Sprint(baseline.SequenceSupport(db, cd)),
		"number of supporting sequences")
	add("all occurrences (sup_all)",
		fmt.Sprint(baseline.CountOccurrences(db, ab)), fmt.Sprint(baseline.CountOccurrences(db, cd)),
		"overlaps over-counted; no Apriori")
	add("episodes, width-4 windows [2] (S1)",
		fmt.Sprint(baseline.FixedWindowSupport(s1, ab, 4)), fmt.Sprint(baseline.FixedWindowSupport(s1, cd, 4)),
		"windows [1,4],[2,5],[4,7],[5,8] for AB")
	add("episodes, minimal windows [2] (S1)",
		fmt.Sprint(baseline.MinimalWindowSupport(s1, ab)), fmt.Sprint(baseline.MinimalWindowSupport(s1, cd)),
		"")
	add("gap requirement 0..3 [6] (S1)",
		fmt.Sprintf("%d (ratio %d/22)", baseline.GapOccurrences(s1, ab, 0, 3), baseline.GapOccurrences(s1, ab, 0, 3)),
		fmt.Sprint(baseline.GapOccurrences(s1, cd, 0, 3)),
		"all gap-respecting occurrences")
	add("interaction patterns [4]",
		fmt.Sprint(baseline.InteractionSupportDB(db, ab)), fmt.Sprint(baseline.InteractionSupportDB(db, cd)),
		"substrings with matching endpoints")
	add("iterative patterns [7]",
		fmt.Sprint(baseline.IterativeSupportDB(db, ab)), fmt.Sprint(baseline.IterativeSupportDB(db, cd)),
		"MSC/LSC QRE occurrences")

	// Larger example from the introduction.
	text := strings.Repeat("CABABABABABD\n", 50) + strings.Repeat("ABCD\n", 50)
	large, err := seq.ParseString(text, seq.FormatChars)
	if err != nil {
		return nil, err
	}
	largePub, err := repro.Load(strings.NewReader(text), repro.Chars)
	if err != nil {
		return nil, err
	}
	lab, err := large.EventSeq([]string{"A", "B"})
	if err != nil {
		return nil, err
	}
	lcd, err := large.EventSeq([]string{"C", "D"})
	if err != nil {
		return nil, err
	}
	res.LargeRepetitiveAB = largePub.Support([]string{"A", "B"})
	res.LargeRepetitiveCD = largePub.Support([]string{"C", "D"})
	res.LargeSequenceAB = baseline.SequenceSupport(large, lab)
	res.LargeSequenceCD = baseline.SequenceSupport(large, lcd)
	return res, nil
}

// Render formats the comparison as a markdown table.
func (t *Table1Result) Render() string {
	var b strings.Builder
	b.WriteString("Support of AB and CD in Example 1.1 (S1=AABCDABB, S2=ABCD) under each definition:\n\n")
	b.WriteString("| definition | sup(AB) | sup(CD) | note |\n|---|---|---|---|\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", r.Definition, r.SupAB, r.SupCD, r.Note)
	}
	fmt.Fprintf(&b, "\nLarger example (50×CABABABABABD + 50×ABCD): repetitive sup(AB)=%d sup(CD)=%d, sequential sup(AB)=%d sup(CD)=%d.\n",
		t.LargeRepetitiveAB, t.LargeRepetitiveCD, t.LargeSequenceAB, t.LargeSequenceCD)
	return b.String()
}
