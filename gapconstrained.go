package repro

import "repro/internal/gapped"

// SupportWithGaps computes the gap-constrained repetitive support of one
// pattern. Unknown event names yield support 0.
func (d *Database) SupportWithGaps(pattern []string, minGap, maxGap int) (int, error) {
	db := d.Snapshot().s.DB()
	ids, err := db.EventSeq(pattern)
	if err != nil {
		return 0, nil // an unknown event never occurs
	}
	return gapped.Support(db, ids, minGap, maxGap)
}
