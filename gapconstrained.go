package repro

import "repro/internal/gapped"

// SupportWithGaps computes the gap-constrained repetitive support of one
// pattern. Unknown event names yield support 0.
func (d *Database) SupportWithGaps(pattern []string, minGap, maxGap int) (int, error) {
	snap := d.Snapshot().s
	ids, err := snap.DB().EventSeq(pattern)
	if err != nil {
		return 0, nil // an unknown event never occurs
	}
	return gapped.Support(snap.Index(false), ids, minGap, maxGap)
}
