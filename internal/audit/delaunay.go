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

func (delaunayCheck) Local() bool { return true }

func (delaunayCheck) Run(s *Snapshot, from, to int, rep *Reporter) {
	m := s.Mesh
	for i := from; i < to; i++ {
		t := m.Triangles[i]
		if !indicesValid(m, t) || t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			continue // orientation's finding
		}
		a, b, c := m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]
		if geom.Orient2DSign(a, b, c) <= 0 {
			continue // InCircle's sign convention assumes CCW; orientation reports this
		}
		for e := 0; e < 3; e++ {
			nb := int(s.adj[i][e])
			if nb < 0 || nb < i {
				continue // boundary edge, or the pair was audited from nb's side
			}
			u, v := t[e], t[(e+1)%3]
			if !s.StrictDelaunay && s.pathSet[edgeOf(m.Points[u], m.Points[v])] {
				continue // constrained edge: CDT makes no promise across it
			}
			nt := m.Triangles[nb]
			opp, ok := oppositeVertex(nt, u, v)
			if !ok || opp < 0 || int(opp) >= len(m.Points) {
				continue // corrupt neighbor; orientation/conformity report it
			}
			p := m.Points[opp]
			if geom.InCircleSign(a, b, c, p) > 0 {
				rep.Reportf(i, "edge (%d,%d): vertex %d of neighbor %d inside circumcircle of (%d,%d,%d)",
					u, v, opp, nb, t[0], t[1], t[2])
			}
		}
	}
}

// oppositeVertex returns the vertex of triangle nt that is not u or v.
func oppositeVertex(nt [3]int32, u, v int32) (int32, bool) {
	for _, w := range nt {
		if w != u && w != v {
			return w, true
		}
	}
	return -1, false
}
