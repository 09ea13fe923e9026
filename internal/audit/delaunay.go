package audit

// The exact-predicate Delaunay audit: for every interior edge that is not
// a constrained/decoupling path edge, the opposite vertex of the neighbor
// triangle must not lie strictly inside the triangle's circumcircle (the
// local Delaunay property; Delaunay's lemma lifts local to global within
// each unconstrained region). The incircle test is geom.InCircleSign — the
// filtered-exact Shewchuk predicate whose slow path runs on the pooled
// expansion arena — so the audit never misclassifies a near-cocircular
// configuration.

import "pamg2d/internal/geom"

// delaunayCheck audits the empty-circumcircle property of non-constrained
// interior edges. Constrained edges (decoupling paths, sector borders, the
// boundary-layer outer boundary) are exempt: a constrained Delaunay
// triangulation only guarantees Delaunayness away from its constraints. In
// StrictDelaunay mode there are no exemptions — every interior edge must
// pass, which is the contract of an unconstrained Delaunay triangulation.
type delaunayCheck struct{}

func (delaunayCheck) Name() string { return "delaunay" }

func (delaunayCheck) Applicable(s *Snapshot) bool { return true }

// Begin returns the triangles, each audited against its neighbours.
func (delaunayCheck) Begin(s *Snapshot, _ *Reporter) Parts {
	return elementParts{s, s.Mesh.NumTriangles(), emptyCircles}
}

func emptyCircles(s *Snapshot, from, to int, rep *Reporter) {
	m := s.Mesh
	for i := from; i < to; i++ {
		t := m.Triangles[i]
		if !wellFormed(m, t) {
			continue // orientation's finding
		}
		a, b, c := m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]
		if geom.Orient2DSign(a, b, c) <= 0 {
			continue // InCircle's sign convention assumes CCW; orientation reports this
		}
		for e := 0; e < 3; e++ {
			k := int(s.twin[3*i+e]) // the neighbor Mesh.Adjacency names
			if k < 0 {
				continue // boundary edge
			}
			u, v := t[e], t[(e+1)%3]
			nb := k / 3
			if nb < i || !s.StrictDelaunay && s.constrained(u, v) {
				continue // audited from nb's side, or constrained: CDT makes no promise across it
			}
			// A corrupt neighbor that repeats u or v puts it here, on the circle.
			opp := m.Triangles[nb][(k%3+2)%3]
			if geom.InCircleSign(a, b, c, m.Points[opp]) > 0 {
				rep.Reportf(i, "edge (%d,%d): vertex %d of neighbor %d inside circumcircle of (%d,%d,%d)",
					u, v, opp, nb, t[0], t[1], t[2])
			}
		}
	}
}
