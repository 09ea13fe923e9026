package audit

// Topological checks: consistent CCW orientation with exact predicates,
// 2-manifold edge incidence and duplicate/orphan detection, and watertight
// boundary recovery against the generation-time surfaces.

import (
	"slices"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// orientationCheck verifies every triangle references in-range, distinct
// vertices and is strictly counter-clockwise under the exact orientation
// predicate. Degenerate (collinear) and inverted (clockwise) elements are
// reported separately so a flipped triangle is distinguishable from a
// collapsed one.
type orientationCheck struct{}

func (orientationCheck) Name() string                { return "orientation" }
func (orientationCheck) Applicable(s *Snapshot) bool { return true }
func (orientationCheck) Local() bool                 { return true }

func (orientationCheck) Run(s *Snapshot, from, to int, rep *Reporter) {
	m := s.Mesh
	for i := from; i < to; i++ {
		t := m.Triangles[i]
		if !m.ValidRefs(t) {
			rep.Reportf(i, "vertex index out of range: (%d,%d,%d) with %d points", t[0], t[1], t[2], len(m.Points))
			continue
		}
		if t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			rep.Reportf(i, "repeated vertex index: (%d,%d,%d)", t[0], t[1], t[2])
			continue
		}
		switch sign := geom.Orient2DSign(m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]); {
		case sign < 0:
			rep.Reportf(i, "clockwise (inverted) triangle (%d,%d,%d)", t[0], t[1], t[2])
		case sign == 0:
			rep.Reportf(i, "degenerate (collinear) triangle (%d,%d,%d)", t[0], t[1], t[2])
		}
	}
}

// conformityCheck verifies the mesh is a 2-manifold simplicial complex over
// its indexed vertices: every directed edge used at most once (no
// overlapping elements), every undirected edge shared by at most two
// triangles, no duplicate elements, no duplicate point coordinates, and no
// orphan points unreferenced by any triangle.
type conformityCheck struct{}

func (conformityCheck) Name() string                { return "conformity" }
func (conformityCheck) Applicable(s *Snapshot) bool { return true }
func (conformityCheck) Local() bool                 { return false }

func (conformityCheck) Run(s *Snapshot, _, _ int, rep *Reporter) {
	m := s.Mesh
	// orig[i] is the first triangle with i's three vertices: a triangle on
	// the edge t0-t1 either way round that also has t2. An edge belongs to
	// the first triangle on it that is its own orig.
	orig := make([]int, len(m.Triangles))
	for i, t := range m.Triangles {
		orig[i] = -1
		if !wellFormed(m, t) {
			continue // orientation's finding
		}
		orig[i] = i
		for _, run := range [2][]mesh.HalfEdge{s.edges.Find(t[0], t[1]), s.edges.Find(t[1], t[0])} {
			for _, k := range run {
				if j := k.Triangle(); j < orig[i] && slices.Contains(m.Triangles[j][:], t[2]) {
					orig[i] = j
				}
			}
		}
		if orig[i] != i {
			rep.Reportf(i, "duplicate of triangle %d", orig[i])
			continue
		}
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			for _, k := range s.edges.Find(u, v) {
				if j := k.Triangle(); orig[j] == j {
					if j != i {
						rep.Reportf(i, "directed edge (%d,%d) already used by triangle %d: overlapping elements", u, v, j)
					}
					break
				}
			}
		}
	}
	// More than two triangles on one edge by coordinates takes a repeated
	// directed edge (caught above) or an end aliased by a duplicate point, so
	// only such edges are counted.
	var suspect []uint64
	for u := range m.Points {
		out := s.edges.From(int32(u))
		for k, h := range out {
			if v := h.To(); k > 0 && out[k-1].To() == v || s.first[u] != int32(u) || s.first[v] != v {
				suspect = append(suspect, pairKey(s.first[u], s.first[v]))
			}
		}
	}
	slices.Sort(suspect)
	for _, key := range slices.Compact(suspect) {
		p, q := m.Points[key>>32], m.Points[uint32(key)]
		if n := s.uses(p, q); n > 2 {
			if comparePoints(q, p) < 0 { // the ends in (X, Y) order
				p, q = q, p
			}
			rep.Reportf(-1, "edge %v-%v shared by %d triangles", p, q, n)
		}
	}
	for i, f := range s.first {
		if f != int32(i) {
			rep.Reportf(-1, "point %d duplicates point %d at %v", i, f, m.Points[i])
		}
	}
	for u := range m.Points {
		if !slices.ContainsFunc(s.edges.From(int32(u)), func(k mesh.HalfEdge) bool { return orig[k.Triangle()] >= 0 }) {
			rep.Reportf(-1, "orphan point %d at %v referenced by no triangle", u, m.Points[u])
		}
	}
}

// boundaryCheck verifies the mesh boundary is watertight: the directed
// boundary edges decompose into disjoint simple cycles (every boundary
// vertex has exactly one incoming and one outgoing boundary edge). When the
// snapshot carries the generation-time boundary layers, it additionally
// verifies boundary recovery against the input surfaces: every refined
// surface vertex is present in the mesh and every surface segment appears
// verbatim as a mesh boundary edge — the surfaces are holes of the final
// mesh, so losing a segment means a leak into the body. In StrictDelaunay
// mode the boundary must be a single loop (an unconstrained Delaunay
// triangulation's boundary is its point set's convex hull), which catches
// deleted elements that tear an interior hole.
type boundaryCheck struct{}

func (boundaryCheck) Name() string                { return "boundary" }
func (boundaryCheck) Applicable(s *Snapshot) bool { return true }
func (boundaryCheck) Local() bool                 { return false }

func (boundaryCheck) Run(s *Snapshot, _, _ int, rep *Reporter) {
	// In/out degree over the boundary half-edges, those whose reverse no
	// triangle has. Any conforming oriented triangle complex has in == out
	// at every boundary vertex (each triangle fan incident to the vertex
	// contributes one incoming and one outgoing boundary edge); a mismatch
	// means the boundary is torn. Degree above 1 is a pinch — two fans
	// meeting at a point — which valid kernel output can produce for
	// degenerate inputs (dropped convex-hull slivers), so it is only an
	// error in strict mode.
	out := make([][]int32, len(s.Mesh.Points)) // successors, ascending
	in := make([]int, len(s.Mesh.Points))
	for u := range out {
		for _, k := range s.edges.From(int32(u)) {
			if len(s.edges.Find(k.To(), int32(u))) == 0 {
				out[u] = append(out[u], k.To())
				in[k.To()]++
			}
		}
	}
	for v, succ := range out {
		if len(succ) > 0 && len(succ) != in[v] {
			owner := s.edges.Find(int32(v), succ[0]) // the highest-numbered triangle is reported
			rep.Reportf(owner[len(owner)-1].Triangle(),
				"boundary vertex %d has %d outgoing / %d incoming boundary edges", v, len(succ), in[v])
		}
		if s.StrictDelaunay && len(succ) > 1 {
			rep.Reportf(-1, "boundary vertex %d pinched: %d boundary fans, want a simple hull loop", v, len(succ))
		}
	}
	for v, n := range in {
		if n > 0 && len(out[v]) == 0 {
			rep.Reportf(-1, "boundary vertex %d has %d incoming boundary edges but no outgoing one", v, n)
		}
	}
	if s.StrictDelaunay {
		// Count the closed walks by consuming successor links, last first
		// (pairing at a pinched vertex is arbitrary; the count is what matters).
		loops := 0
		for u := range out {
			for ; len(out[u]) > 0; loops++ {
				for v := int32(u); len(out[v]) > 0; {
					next := out[v][len(out[v])-1]
					out[v] = out[v][:len(out[v])-1]
					v = next
				}
			}
		}
		if loops != 1 {
			rep.Reportf(-1, "boundary splits into %d loops, want a single convex hull loop", loops)
		}
	}
	// Watertight surface recovery: every refined surface vertex present,
	// every surface segment a boundary edge of the mesh.
	for li, l := range s.Layers {
		pts := l.Surface.Points
		for i, p := range pts {
			q := pts[(i+1)%len(pts)]
			a, b := s.at(p), s.at(q)
			if len(a) == 0 {
				rep.Reportf(-1, "surface %d vertex %d at %v missing from mesh", li, i, p)
				continue
			}
			if len(b) == 0 {
				continue // reported when its own segment is visited
			}
			// Surfaces are CW holes in the final mesh, so the boundary edge
			// runs opposite the CCW surface loop; accept either direction,
			// which is a boundary edge when its reverse is absent.
			if (len(s.edges.Find(a[0], b[0])) == 0) == (len(s.edges.Find(b[0], a[0])) == 0) {
				if uses := s.uses(p, q); uses > 0 {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) is an interior edge (%d triangles), not a boundary edge",
						li, i, p, q, uses)
				} else {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) not recovered as a mesh boundary edge",
						li, i, p, q)
				}
			}
		}
	}
}
