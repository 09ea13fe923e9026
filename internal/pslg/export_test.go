package pslg

import "pamg2d/internal/geom"

// Scan returns the number of edges a query at p scans and whether it
// scans at all (false when the extents reject p).
func (ix *LoopIndex) Scan(p geom.Point) (edges int, scanned bool) {
	c := ix.candidates(p)
	return len(c), c != nil
}
