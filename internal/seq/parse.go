package seq

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Format identifies an on-disk sequence database encoding.
type Format int

const (
	// FormatTokens is one sequence per line, events as whitespace-separated
	// tokens. Lines starting with '#' and blank lines are skipped.
	FormatTokens Format = iota
	// FormatChars is one sequence per line, every byte one single-character
	// event (the paper's running-example notation, e.g. "ABCACBDDB").
	FormatChars
	// FormatSPMF is the SPMF sequence-database format: integer items,
	// -1 terminates an itemset, -2 terminates the sequence. Because the
	// repetitive-gapped-subsequence model is over single events, each
	// itemset must contain exactly one item.
	FormatSPMF
)

// formatNames is the one table of format names, shared by every flag
// and by the HTTP API.
var formatNames = [...]string{FormatTokens: "tokens", FormatChars: "chars", FormatSPMF: "spmf"}

// String returns the format's flag/wire name.
func (f Format) String() string {
	if f >= 0 && int(f) < len(formatNames) {
		return formatNames[f]
	}
	return fmt.Sprintf("Format(%d)", int(f))
}

// ParseFormat maps a format name ("tokens", "chars", "spmf") to a Format.
func ParseFormat(name string) (Format, error) {
	for f, n := range formatNames {
		if n == name {
			return Format(f), nil
		}
	}
	return 0, fmt.Errorf("unknown format %q (want tokens, chars, or spmf)", name)
}

// ParseError reports a parse failure with 1-based line information.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("seq: parse error on line %d: %s", e.Line, e.Msg)
}

// Parse reads a sequence database from r in the given format.
func Parse(r io.Reader, format Format) (*DB, error) {
	switch format {
	case FormatTokens:
		return parseLines(r, false)
	case FormatChars:
		return parseLines(r, true)
	case FormatSPMF:
		return parseSPMF(r)
	default:
		return nil, fmt.Errorf("seq: unknown format %d", format)
	}
}

// ParseString is Parse over an in-memory string, convenient in tests and
// examples.
func ParseString(s string, format Format) (*DB, error) {
	return Parse(strings.NewReader(s), format)
}

func parseLines(r io.Reader, chars bool) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		label := ""
		// Optional "label:" prefix.
		if k := strings.IndexByte(line, ':'); k >= 0 && !strings.ContainsAny(line[:k], " \t") {
			label = line[:k]
			line = strings.TrimSpace(line[k+1:])
		}
		if chars {
			if strings.ContainsAny(line, " \t") {
				return nil, &ParseError{lineNo, "char format must not contain whitespace within a sequence"}
			}
			db.AddChars(label, line)
		} else {
			db.Add(label, strings.Fields(line))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: reading input: %w", err)
	}
	return db, nil
}

func parseSPMF(r io.Reader) (*DB, error) {
	db := NewDB()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "@") {
			continue
		}
		var events []string
		itemsInSet := 0
		ended := false
		for _, tok := range strings.Fields(line) {
			v, err := strconv.Atoi(tok)
			if err != nil {
				return nil, &ParseError{lineNo, fmt.Sprintf("non-integer token %q", tok)}
			}
			switch {
			case v == -2:
				ended = true
			case v == -1:
				if itemsInSet != 1 {
					return nil, &ParseError{lineNo, fmt.Sprintf("itemset with %d items; repetitive gapped subsequences require single-event itemsets", itemsInSet)}
				}
				itemsInSet = 0
			case v < 0:
				return nil, &ParseError{lineNo, fmt.Sprintf("unexpected negative item %d", v)}
			default:
				if ended {
					return nil, &ParseError{lineNo, "items after -2 terminator"}
				}
				events = append(events, tok)
				itemsInSet++
			}
		}
		if itemsInSet != 0 {
			return nil, &ParseError{lineNo, "itemset not terminated by -1"}
		}
		if !ended {
			return nil, &ParseError{lineNo, "sequence not terminated by -2"}
		}
		db.Add("", events)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("seq: reading input: %w", err)
	}
	return db, nil
}

// writeLabel returns sequence i's label made safe for the line-oriented
// formats: characters that would confuse the parser (whitespace, ':', '#')
// are replaced, and missing labels are synthesized as "S<n>".
func writeLabel(db *DB, i int) string {
	label := db.Label(i)
	out := []byte(label)
	for j := range out {
		switch out[j] {
		case ':', ' ', '\t', '\n', '\r', '#':
			out[j] = '_'
		}
	}
	if len(out) == 0 {
		return fmt.Sprintf("S%d", i+1)
	}
	return string(out)
}

// Write serializes db to w in the given format. FormatChars requires every
// event name to be a single non-whitespace character; FormatTokens requires
// names free of whitespace; FormatSPMF requires every event name to be a
// non-negative integer literal or, failing that, writes dictionary IDs.
// Token and char lines always carry an explicit (sanitized) label so that
// any serializable database round-trips losslessly.
func Write(w io.Writer, db *DB, format Format) error {
	bw := bufio.NewWriter(w)
	switch format {
	case FormatTokens:
		for i, s := range db.Seqs {
			// Always write an explicit label: a bare event line could
			// otherwise re-parse as a comment (leading '#') or have its
			// first token mistaken for a label (embedded ':'), and an
			// empty sequence would vanish entirely.
			if _, err := fmt.Fprintf(bw, "%s:", writeLabel(db, i)); err != nil {
				return err
			}
			for _, e := range s {
				name := db.Dict.Name(e)
				if name == "" || strings.ContainsAny(name, " \t\r\n") {
					return fmt.Errorf("seq: event name %q not representable in token format", name)
				}
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
				if _, err := bw.WriteString(name); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	case FormatChars:
		for i, s := range db.Seqs {
			if _, err := fmt.Fprintf(bw, "%s: ", writeLabel(db, i)); err != nil {
				return err
			}
			for _, e := range s {
				name := db.Dict.Name(e)
				if len(name) != 1 || name == " " || name == "\t" {
					return fmt.Errorf("seq: event %q is not a single printable character", name)
				}
				if err := bw.WriteByte(name[0]); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	case FormatSPMF:
		numeric := true
		for _, name := range db.Dict.names {
			if _, err := strconv.Atoi(name); err != nil {
				numeric = false
				break
			}
		}
		for _, s := range db.Seqs {
			for _, e := range s {
				item := db.Dict.Name(e)
				if !numeric {
					item = strconv.Itoa(int(e))
				}
				if _, err := fmt.Fprintf(bw, "%s -1 ", item); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString("-2\n"); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("seq: unknown format %d", format)
	}
	return bw.Flush()
}
