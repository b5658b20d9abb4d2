// Package seq provides the sequence-database substrate used by the
// repetitive gapped subsequence miner: an event dictionary interning string
// events to dense integer IDs, the sequence database type, parsers and
// writers for common on-disk formats, database statistics, and the inverted
// event index that implements the paper's next(S, e, lowest) subroutine in
// O(log L) time (Ding et al., ICDE 2009, Section III-D).
//
// Positions are 1-based throughout, matching the paper's notation: the first
// event of a sequence S is S[1].
package seq

import (
	"fmt"
	"strings"
)

// EventID is a dense integer identifier for an event. IDs are assigned by a
// Dict in first-seen order starting from 0.
type EventID int32

// NoEvent is returned by lookups that fail to resolve an event.
const NoEvent EventID = -1

// Sequence is an ordered list of events. Index 0 of the slice holds the
// event the paper calls S[1]; use At for 1-based access.
type Sequence []EventID

// At returns the event at 1-based position pos. It panics if pos is out of
// range, mirroring slice indexing.
func (s Sequence) At(pos int) EventID { return s[pos-1] }

// Len returns the number of events in the sequence.
func (s Sequence) Len() int { return len(s) }

// Dict interns event names, assigning dense EventIDs in first-seen order.
// The zero value is not ready to use; call NewDict.
type Dict struct {
	byName map[string]EventID
	names  []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{byName: make(map[string]EventID)}
}

// Intern returns the EventID for name, assigning a fresh ID on first use.
func (d *Dict) Intern(name string) EventID {
	if id, ok := d.byName[name]; ok {
		return id
	}
	id := EventID(len(d.names))
	d.byName[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the EventID for name, or NoEvent if name was never interned.
func (d *Dict) Lookup(name string) EventID {
	if id, ok := d.byName[name]; ok {
		return id
	}
	return NoEvent
}

// Name returns the name for id. It panics if id was never assigned.
func (d *Dict) Name(id EventID) string { return d.names[id] }

// Size returns the number of distinct events interned so far.
func (d *Dict) Size() int { return len(d.names) }

// Clone returns an independent copy of the dictionary: interning into the
// clone never affects the original. Snapshot stores use this to extend the
// alphabet copy-on-write, so readers of a sealed snapshot can keep calling
// Lookup and Name without synchronization.
func (d *Dict) Clone() *Dict {
	nd := &Dict{
		byName: make(map[string]EventID, len(d.byName)),
		names:  make([]string, len(d.names)),
	}
	copy(nd.names, d.names)
	for name, id := range d.byName {
		nd.byName[name] = id
	}
	return nd
}

// Names returns all interned names in ID order. The returned slice is a
// copy and may be modified by the caller.
func (d *Dict) Names() []string {
	out := make([]string, len(d.names))
	copy(out, d.names)
	return out
}

// DB is a sequence database SeqDB = {S1, ..., SN}. Sequences are identified
// by 0-based index internally; Labels (optional, parallel to Seqs) carry
// human-readable names such as "S1".
type DB struct {
	Dict   *Dict
	Seqs   []Sequence
	Labels []string
}

// NewDB returns an empty database with a fresh dictionary.
func NewDB() *DB {
	return &DB{Dict: NewDict()}
}

// NumSequences returns N, the number of sequences in the database.
func (db *DB) NumSequences() int { return len(db.Seqs) }

// NumEvents returns the number of distinct events seen by the dictionary.
// Note this counts interned events, which can exceed the number of events
// actually occurring in sequences if the dictionary is shared.
func (db *DB) NumEvents() int { return db.Dict.Size() }

// TotalLength returns the total number of event occurrences across all
// sequences.
func (db *DB) TotalLength() int {
	n := 0
	for _, s := range db.Seqs {
		n += len(s)
	}
	return n
}

// MaxLength returns the length of the longest sequence, or 0 for an empty
// database.
func (db *DB) MaxLength() int {
	m := 0
	for _, s := range db.Seqs {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// AvgLength returns the mean sequence length, or 0 for an empty database.
func (db *DB) AvgLength() float64 {
	if len(db.Seqs) == 0 {
		return 0
	}
	return float64(db.TotalLength()) / float64(len(db.Seqs))
}

// Label returns the label of sequence i (0-based), synthesizing "S<i+1>"
// when no label was recorded.
func (db *DB) Label(i int) string {
	if i < len(db.Labels) && db.Labels[i] != "" {
		return db.Labels[i]
	}
	return fmt.Sprintf("S%d", i+1)
}

// Add appends a sequence of event names with the given label and returns
// its 0-based index. Empty name slices are allowed (the sequence simply has
// no instances of any pattern).
func (db *DB) Add(label string, events []string) int {
	s := make(Sequence, len(events))
	for i, name := range events {
		s[i] = db.Dict.Intern(name)
	}
	db.Seqs = append(db.Seqs, s)
	db.Labels = append(db.Labels, label)
	return len(db.Seqs) - 1
}

// AddIDs appends a sequence of already-interned events and returns its
// 0-based index. The caller is responsible for all IDs being valid in
// db.Dict.
func (db *DB) AddIDs(label string, events []EventID) int {
	s := make(Sequence, len(events))
	copy(s, events)
	db.Seqs = append(db.Seqs, s)
	db.Labels = append(db.Labels, label)
	return len(db.Seqs) - 1
}

// AddChars appends a sequence where every byte of the string is one
// single-character event, e.g. AddChars("S1", "AABCDABB"). This matches the
// paper's running examples. The split is byte-wise (substrings, not rune
// conversions), so arbitrary single-byte events round-trip through the
// chars format.
func (db *DB) AddChars(label, events string) int {
	names := make([]string, len(events))
	for i := 0; i < len(events); i++ {
		names[i] = events[i : i+1]
	}
	return db.Add(label, names)
}

// EventSeq resolves a pattern given as event names into IDs using the
// database dictionary. It returns an error naming the first unknown event.
func (db *DB) EventSeq(names []string) ([]EventID, error) {
	ids := make([]EventID, len(names))
	for i, n := range names {
		id := db.Dict.Lookup(n)
		if id == NoEvent {
			return nil, fmt.Errorf("seq: unknown event %q", n)
		}
		ids[i] = id
	}
	return ids, nil
}

// PatternString formats a pattern of event IDs using the dictionary. Events
// whose names are single characters are concatenated ("ACB"); otherwise they
// are joined with spaces.
func (db *DB) PatternString(p []EventID) string {
	names := make([]string, len(p))
	for i, e := range p {
		names[i] = db.Dict.Name(e)
	}
	return JoinNames(names)
}

// JoinNames renders a pattern given as event names the way PatternString
// does: concatenated when every name is a single character, otherwise
// space-separated.
func JoinNames(names []string) string {
	for _, n := range names {
		if len(n) != 1 {
			return strings.Join(names, " ")
		}
	}
	return strings.Join(names, "")
}

// Validate checks internal consistency: every event ID in every sequence
// must be a valid dictionary ID, and Labels (when present) must not be
// longer than Seqs.
func (db *DB) Validate() error {
	if db.Dict == nil {
		return fmt.Errorf("seq: database has nil dictionary")
	}
	if len(db.Labels) > len(db.Seqs) {
		return fmt.Errorf("seq: %d labels for %d sequences", len(db.Labels), len(db.Seqs))
	}
	n := EventID(db.Dict.Size())
	for i, s := range db.Seqs {
		for j, e := range s {
			if e < 0 || e >= n {
				return fmt.Errorf("seq: sequence %d position %d: event id %d out of range [0,%d)", i, j+1, e, n)
			}
		}
	}
	return nil
}

// Extend returns a shallow copy of db prepared for copy-on-write growth:
// the copy shares db's dictionary, sequences, and labels, but its Seqs and
// Labels slice capacities are clipped to their lengths, so appending to the
// copy can never write into backing arrays that db (or any other snapshot
// sharing them) still reads. This is the sealing primitive of the snapshot
// store: a sealed database is never mutated; growth happens on an Extend
// copy that is published as the next snapshot.
func (db *DB) Extend() *DB {
	return &DB{
		Dict:   db.Dict,
		Seqs:   db.Seqs[:len(db.Seqs):len(db.Seqs)],
		Labels: db.Labels[:len(db.Labels):len(db.Labels)],
	}
}

// Clone returns a deep copy of the database. The dictionary is copied too,
// so mutations to the clone never affect the original.
func (db *DB) Clone() *DB {
	nd := db.Dict.Clone()
	out := &DB{Dict: nd}
	out.Seqs = make([]Sequence, len(db.Seqs))
	for i, s := range db.Seqs {
		cp := make(Sequence, len(s))
		copy(cp, s)
		out.Seqs[i] = cp
	}
	out.Labels = append(out.Labels, db.Labels...)
	return out
}
