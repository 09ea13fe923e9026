package audit

// Topological checks: consistent CCW orientation with exact predicates,
// 2-manifold edge incidence and duplicate/orphan detection, and watertight
// boundary recovery against the generation-time surfaces.

import (
	"slices"
	"sync"
	"sync/atomic"

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

// Begin returns the triangles, each audited alone.
func (orientationCheck) Begin(s *Snapshot, _ *Reporter) Parts {
	return elementParts{s, s.Mesh.NumTriangles(), orientation}
}

func orientation(s *Snapshot, from, to int, rep *Reporter) {
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
// orphan points unreferenced by any triangle. Its parts cover the
// triangles and then the points: a triangle's findings are its own, a
// point's edges and its use are read off the table, and the tail lists
// the edges shared too often, the duplicate points and the orphans.
type conformityCheck struct{}

func (conformityCheck) Name() string                         { return "conformity" }
func (conformityCheck) Applicable(s *Snapshot) bool          { return true }
func (conformityCheck) Begin(s *Snapshot, _ *Reporter) Parts { return &conformityRun{s: s} }

// conformityRun is one conformity check: the parts' point findings,
// gathered for the tail in whatever order the parts finish.
type conformityRun struct {
	s       *Snapshot
	mu      sync.Mutex
	suspect []uint64 // edges that may have more than two triangles
	orphans []int32
}

// Size covers the triangles, then the points.
func (r *conformityRun) Size() int { return len(r.s.Mesh.Triangles) + len(r.s.Mesh.Points) }

func (r *conformityRun) Part(from, to int, rep *Reporter) {
	s, m := r.s, r.s.Mesh
	nt := len(m.Triangles)
	for i := from; i < min(to, nt); i++ {
		o := s.orig(i)
		if o < 0 {
			continue // orientation's finding
		}
		if o != i {
			rep.Reportf(i, "duplicate of triangle %d", o)
			continue
		}
		// An edge belongs to the first triangle on it that is its own orig.
		t := m.Triangles[i]
		for e := 0; e < 3; e++ {
			if !s.shared[3*i+e] {
				continue // i's alone
			}
			u, v := t[e], t[(e+1)%3]
			for _, k := range s.edges.Find(u, v) {
				if j := k.Triangle(); j >= i {
					break
				} else if s.orig(j) == j {
					rep.Reportf(i, "directed edge (%d,%d) already used by triangle %d: overlapping elements", u, v, j)
					break
				}
			}
		}
	}
	// More than two triangles on one edge by coordinates takes a repeated
	// directed edge (caught above) or an end aliased by a duplicate point, so
	// only such edges are suspect. A point no well-formed triangle uses is
	// an orphan.
	var suspect []uint64
	var orphans []int32
	for u := int32(max(from, nt) - nt); u < int32(to-nt); u++ {
		out := s.edges.From(u)
		used := false
		for k, h := range out {
			if v := h.To(); k > 0 && out[k-1].To() == v || s.first[u] != u || s.first[v] != v {
				suspect = append(suspect, pairKey(s.first[u], s.first[v]))
			}
			used = used || wellFormed(m, m.Triangles[h.Triangle()])
		}
		if !used {
			orphans = append(orphans, u)
		}
	}
	if len(suspect) > 0 || len(orphans) > 0 {
		r.mu.Lock()
		r.suspect = append(r.suspect, suspect...)
		r.orphans = append(r.orphans, orphans...)
		r.mu.Unlock()
	}
}

func (r *conformityRun) Tail(rep *Reporter) {
	s, m := r.s, r.s.Mesh
	slices.Sort(r.suspect)
	for _, key := range slices.Compact(r.suspect) {
		p, q := m.Points[key>>32], m.Points[uint32(key)]
		if n := s.uses(p, q); n > 2 {
			if geom.Compare(q, p) < 0 { // the ends in (X, Y) order
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
	slices.Sort(r.orphans)
	for _, u := range r.orphans {
		rep.Reportf(-1, "orphan point %d at %v referenced by no triangle", u, m.Points[u])
	}
}

// orig is the first triangle with triangle i's three vertices: i itself
// unless a lower-numbered triangle on its edge t0-t1, either way round,
// also has t2. It is -1 when i is not well formed.
func (s *Snapshot) orig(i int) int {
	m := s.Mesh
	t := m.Triangles[i]
	if !wellFormed(m, t) {
		return -1
	}
	if k := s.twin[3*i]; !s.shared[3*i] && (k < 0 || !s.shared[k]) {
		// i alone on t0->t1, and at most the one triangle k/3 on t1->t0.
		if j := int(k / 3); k >= 0 && j < i && slices.Contains(m.Triangles[j][:], t[2]) {
			return j
		}
		return i
	}
	o := i
	for _, run := range [2][]mesh.HalfEdge{s.edges.Find(t[0], t[1]), s.edges.Find(t[1], t[0])} {
		for _, k := range run {
			if j := k.Triangle(); j < o && slices.Contains(m.Triangles[j][:], t[2]) {
				o = j
			}
		}
	}
	return o
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
// deleted elements that tear an interior hole. The parts count the
// boundary edges of ranges of triangles at both ends; the tail checks the
// counts, the loops and the surfaces.
type boundaryCheck struct{}

func (boundaryCheck) Name() string                { return "boundary" }
func (boundaryCheck) Applicable(s *Snapshot) bool { return true }

func (boundaryCheck) Begin(s *Snapshot, _ *Reporter) Parts {
	np := len(s.Mesh.Points)
	r := &boundaryRun{s: s, out: make([]atomic.Int32, np), in: make([]atomic.Int32, np)}
	if s.StrictDelaunay {
		r.succ = make([][]int32, np)
	}
	return r
}

// boundaryRun is one boundary check: every vertex's boundary degrees,
// over the boundary half-edges, those whose reverse no triangle has.
type boundaryRun struct {
	s       *Snapshot
	out, in []atomic.Int32 // parts share vertices
	mu      sync.Mutex
	succ    [][]int32 // successors; StrictDelaunay only
}

func (r *boundaryRun) Size() int { return len(r.s.Mesh.Triangles) }

// Part counts the boundary edges of triangles [from, to) at both ends.
func (r *boundaryRun) Part(from, to int, _ *Reporter) {
	s := r.s
	for i := from; i < to; i++ {
		t := s.Mesh.Triangles[i]
		if !s.Mesh.ValidRefs(t) {
			continue // not in the half-edge table
		}
		for e := 0; e < 3; e++ {
			if s.twin[3*i+e] >= 0 {
				continue
			}
			u, v := t[e], t[(e+1)%3]
			r.out[u].Add(1)
			r.in[v].Add(1)
			if r.succ != nil {
				r.mu.Lock()
				r.succ[u] = append(r.succ[u], v)
				r.mu.Unlock()
			}
		}
	}
}

// Tail checks the degrees. Any conforming oriented triangle complex has in
// == out at every boundary vertex (each triangle fan incident to the
// vertex contributes one incoming and one outgoing boundary edge); a
// mismatch means the boundary is torn. Degree above 1 is a pinch — two
// fans meeting at a point — which valid kernel output can produce for
// degenerate inputs (dropped convex-hull slivers), so it is only an error
// in strict mode.
func (r *boundaryRun) Tail(rep *Reporter) {
	s := r.s
	for v := range r.out {
		n, in := r.out[v].Load(), r.in[v].Load()
		if n > 0 && n != in {
			owner := s.edges.Find(int32(v), r.firstSucc(int32(v))) // the highest-numbered triangle is reported
			rep.Reportf(owner[len(owner)-1].Triangle(),
				"boundary vertex %d has %d outgoing / %d incoming boundary edges", v, n, in)
		}
		if s.StrictDelaunay && n > 1 {
			rep.Reportf(-1, "boundary vertex %d pinched: %d boundary fans, want a simple hull loop", v, n)
		}
	}
	for v := range r.in {
		if n := r.in[v].Load(); n > 0 && r.out[v].Load() == 0 {
			rep.Reportf(-1, "boundary vertex %d has %d incoming boundary edges but no outgoing one", v, n)
		}
	}
	if s.StrictDelaunay {
		// Count the closed walks by consuming successor links, last first
		// in ascending order (pairing at a pinched vertex is arbitrary; the
		// count is what matters).
		out, loops := r.succ, 0
		for _, succ := range out {
			slices.Sort(succ)
		}
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

// firstSucc is v's lowest boundary successor.
func (r *boundaryRun) firstSucc(v int32) int32 {
	for _, k := range r.s.edges.From(v) {
		if r.s.twin[3*k.Triangle()+k.Edge()] < 0 {
			return k.To()
		}
	}
	return -1
}
