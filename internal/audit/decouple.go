package audit

// The decoupling check. Graded Delaunay Decoupling is only sound if the
// decoupling paths survive triangulation intact: every path edge must
// appear verbatim as a conforming edge of the merged mesh. A missing edge
// means either an element straddles the path (the sectors were not
// actually independent) or refinement inserted an encroaching point and
// split a border that the k-rule (k = sqrt(A/sqrt(2))/2) promised to
// protect. An edge present once too often, or with only one incident
// triangle off the far-field border, means the two sectors sharing the
// path disagree about it.

// decoupleCheck's parts are the path edges, each audited alone.
type decoupleCheck struct{}

func (decoupleCheck) Name() string { return "decoupling" }

func (decoupleCheck) Applicable(s *Snapshot) bool { return len(s.Paths) > 0 }

func (decoupleCheck) Begin(s *Snapshot, _ *Reporter) Parts {
	return elementParts{s, len(s.Paths), pathEdges}
}

func pathEdges(s *Snapshot, from, to int, rep *Reporter) {
	for _, pe := range s.Paths[from:to] {
		a, b := pe[0], pe[1]
		if a == b {
			continue
		}
		if len(s.at(a)) == 0 {
			rep.Reportf(-1, "path vertex %v missing from mesh", a)
			continue
		}
		if len(s.at(b)) == 0 {
			rep.Reportf(-1, "path vertex %v missing from mesh", b)
			continue
		}
		switch n := s.uses(a, b); {
		case n == 0:
			rep.Reportf(-1, "path edge %v-%v not a mesh edge: an element straddles the decoupling path", a, b)
		case n == 1 && !s.onFarfieldBorder(a, b):
			rep.Reportf(-1, "path edge %v-%v has one incident triangle: sectors disagree on the shared border", a, b)
		case n > 2:
			rep.Reportf(-1, "path edge %v-%v shared by %d triangles", a, b, n)
		}
	}
}
