package audit

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/pslg"
)

// The map-based lookups and checks the audit ran before it read the mesh's
// half-edge table: coordinate-keyed edge incidence, path and point maps,
// and the conformity, boundary, Delaunay and decoupling checks over them.
// They are the reference TestAuditMatchesMapReference and
// FuzzAuditMatchesMapReference hold the table-based checks to, and they
// share no code with them: even the neighbor map is built here. The two
// loops that iterated a map now iterate its keys sorted, in the order the
// table-based checks promise (ascending vertex, ascending edge by the first
// index at each end).

type mapEdge struct{ a, b geom.Point }

func mapEdgeOf(a, b geom.Point) mapEdge {
	if b.X < a.X || (b.X == a.X && b.Y < a.Y) {
		a, b = b, a
	}
	return mapEdge{a, b}
}

type mapSnapshot struct {
	*Snapshot
	adj       [][3]int32
	edgeUse   map[mapEdge]int
	pathSet   map[mapEdge]bool
	pointIdx  map[geom.Point]int32
	boundary  [][2]int32
	boundaryT map[[2]int32]int32
}

func refValid(m *mesh.Mesh, t [3]int32) bool {
	n := int32(len(m.Points))
	return t[0] >= 0 && t[0] < n && t[1] >= 0 && t[1] < n && t[2] >= 0 && t[2] < n
}

func mapPrepare(s *Snapshot) *mapSnapshot {
	m := s.Mesh
	r := &mapSnapshot{Snapshot: s, adj: make([][3]int32, len(m.Triangles))}
	owner := make(map[[2]int32]int32)
	for i, t := range m.Triangles {
		if refValid(m, t) {
			for e := 0; e < 3; e++ {
				owner[[2]int32{t[e], t[(e+1)%3]}] = int32(i)
			}
		}
	}
	r.edgeUse = make(map[mapEdge]int)
	r.boundaryT = make(map[[2]int32]int32)
	for i, t := range m.Triangles {
		r.adj[i] = [3]int32{-1, -1, -1}
		if !refValid(m, t) {
			continue
		}
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			if nb, ok := owner[[2]int32{v, u}]; ok {
				r.adj[i][e] = nb
			}
			r.edgeUse[mapEdgeOf(m.Points[u], m.Points[v])]++
			if r.adj[i][e] < 0 {
				r.boundary = append(r.boundary, [2]int32{u, v})
				r.boundaryT[[2]int32{u, v}] = int32(i)
			}
		}
	}
	slices.SortFunc(r.boundary, pairCompare)
	r.pointIdx = make(map[geom.Point]int32, len(m.Points))
	for i, p := range m.Points {
		if _, ok := r.pointIdx[p]; !ok {
			r.pointIdx[p] = int32(i)
		}
	}
	r.pathSet = make(map[mapEdge]bool, len(s.Paths))
	for _, pe := range s.Paths {
		r.pathSet[mapEdgeOf(pe[0], pe[1])] = true
	}
	return r
}

func pairCompare(a, b [2]int32) int {
	return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
}

func (s *mapSnapshot) conformity(rep *Reporter) {
	m := s.Mesh
	type dedge struct{ a, b int32 }
	dir := make(map[dedge]int32, 3*len(m.Triangles))
	seen := make(map[[3]int32]int32, len(m.Triangles))
	used := make([]bool, len(m.Points))
	for i, t := range m.Triangles {
		if !refValid(m, t) || t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			continue
		}
		key := t
		slices.Sort(key[:])
		if prev, ok := seen[key]; ok {
			rep.Reportf(i, "duplicate of triangle %d", prev)
			continue
		}
		seen[key] = int32(i)
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			used[u] = true
			if prev, ok := dir[dedge{u, v}]; ok {
				rep.Reportf(i, "directed edge (%d,%d) already used by triangle %d: overlapping elements", u, v, prev)
				continue
			}
			dir[dedge{u, v}] = int32(i)
		}
	}
	var shared [][2]int32
	for e, n := range s.edgeUse {
		if n > 2 {
			shared = append(shared, [2]int32{min(s.pointIdx[e.a], s.pointIdx[e.b]), max(s.pointIdx[e.a], s.pointIdx[e.b])})
		}
	}
	slices.SortFunc(shared, pairCompare)
	for _, ij := range shared {
		e := mapEdgeOf(m.Points[ij[0]], m.Points[ij[1]])
		rep.Reportf(-1, "edge %v-%v shared by %d triangles", e.a, e.b, s.edgeUse[e])
	}
	dupPts := make(map[geom.Point]int32, len(m.Points))
	for i, p := range m.Points {
		if prev, ok := dupPts[p]; ok {
			rep.Reportf(-1, "point %d duplicates point %d at %v", i, prev, p)
			continue
		}
		dupPts[p] = int32(i)
	}
	for i, u := range used {
		if !u {
			rep.Reportf(-1, "orphan point %d at %v referenced by no triangle", i, m.Points[i])
		}
	}
}

func sortedKeys[V any](m map[int32]V) []int32 {
	var keys []int32
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func (s *mapSnapshot) boundaryCheck(rep *Reporter) {
	out := make(map[int32][]int32, len(s.boundary))
	inN := make(map[int32]int, len(s.boundary))
	for _, e := range s.boundary {
		out[e[0]] = append(out[e[0]], e[1])
		inN[e[1]]++
	}
	for _, v := range sortedKeys(out) {
		succ := out[v]
		if len(succ) != inN[v] {
			rep.Reportf(int(s.boundaryT[[2]int32{v, succ[0]}]),
				"boundary vertex %d has %d outgoing / %d incoming boundary edges", v, len(succ), inN[v])
		}
		if s.StrictDelaunay && len(succ) > 1 {
			rep.Reportf(-1, "boundary vertex %d pinched: %d boundary fans, want a simple hull loop", v, len(succ))
		}
	}
	for _, v := range sortedKeys(inN) {
		if len(out[v]) == 0 {
			rep.Reportf(-1, "boundary vertex %d has %d incoming boundary edges but no outgoing one", v, inN[v])
		}
	}
	loops := 0
	for _, e := range s.boundary {
		v := e[0]
		if len(out[v]) == 0 {
			continue
		}
		loops++
		for steps := 0; len(out[v]) > 0 && steps <= len(s.boundary); steps++ {
			next := out[v][len(out[v])-1]
			out[v] = out[v][:len(out[v])-1]
			v = next
		}
	}
	if s.StrictDelaunay && loops != 1 {
		rep.Reportf(-1, "boundary splits into %d loops, want a single convex hull loop", loops)
	}
	if len(s.Layers) == 0 {
		return
	}
	bset := make(map[[2]int32]bool, len(s.boundary))
	for _, e := range s.boundary {
		bset[e] = true
	}
	for li, l := range s.Layers {
		pts := l.Surface.Points
		n := len(pts)
		for i := 0; i < n; i++ {
			ai, aok := s.pointIdx[pts[i]]
			bi, bok := s.pointIdx[pts[(i+1)%n]]
			if !aok {
				rep.Reportf(-1, "surface %d vertex %d at %v missing from mesh", li, i, pts[i])
				continue
			}
			if !bok {
				continue
			}
			if !bset[[2]int32{ai, bi}] && !bset[[2]int32{bi, ai}] {
				if uses := s.edgeUse[mapEdgeOf(pts[i], pts[(i+1)%n])]; uses > 0 {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) is an interior edge (%d triangles), not a boundary edge",
						li, i, pts[i], pts[(i+1)%n], uses)
				} else {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) not recovered as a mesh boundary edge",
						li, i, pts[i], pts[(i+1)%n])
				}
			}
		}
	}
}

func (s *mapSnapshot) delaunay(rep *Reporter) {
	m := s.Mesh
	for i, t := range m.Triangles {
		if !refValid(m, t) || t[0] == t[1] || t[1] == t[2] || t[0] == t[2] {
			continue
		}
		a, b, c := m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]
		if geom.Orient2DSign(a, b, c) <= 0 {
			continue
		}
		for e := 0; e < 3; e++ {
			nb := int(s.adj[i][e])
			if nb < 0 || nb < i {
				continue
			}
			u, v := t[e], t[(e+1)%3]
			if !s.StrictDelaunay && s.pathSet[mapEdgeOf(m.Points[u], m.Points[v])] {
				continue
			}
			opp, ok := oppositeVertex(m.Triangles[nb], u, v)
			if !ok || opp < 0 || int(opp) >= len(m.Points) {
				continue
			}
			if geom.InCircleSign(a, b, c, m.Points[opp]) > 0 {
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

func (s *mapSnapshot) decoupling(rep *Reporter) {
	for _, pe := range s.Paths {
		a, b := pe[0], pe[1]
		if a == b {
			continue
		}
		if _, ok := s.pointIdx[a]; !ok {
			rep.Reportf(-1, "path vertex %v missing from mesh", a)
			continue
		}
		if _, ok := s.pointIdx[b]; !ok {
			rep.Reportf(-1, "path vertex %v missing from mesh", b)
			continue
		}
		switch n := s.edgeUse[mapEdgeOf(a, b)]; {
		case n == 0:
			rep.Reportf(-1, "path edge %v-%v not a mesh edge: an element straddles the decoupling path", a, b)
		case n == 1 && !s.onFarfieldBorder(a, b):
			rep.Reportf(-1, "path edge %v-%v has one incident triangle: sectors disagree on the shared border", a, b)
		case n > 2:
			rep.Reportf(-1, "path edge %v-%v shared by %d triangles", a, b, n)
		}
	}
}

// tableChecks are the checks that read the table; mapRun is their
// reference, and both reports leave out walls and allocations.
var tableChecks = []Check{conformityCheck{}, boundaryCheck{}, delaunayCheck{}, decoupleCheck{}}

func mapRun(s *Snapshot) *Report {
	r := mapPrepare(s)
	rep := &Report{}
	for _, c := range []struct {
		name string
		run  func(*Reporter)
	}{{"conformity", r.conformity}, {"boundary", r.boundaryCheck}, {"delaunay", r.delaunay}, {"decoupling", r.decoupling}} {
		if c.name == "decoupling" && len(s.Paths) == 0 {
			rep.Checks = append(rep.Checks, CheckStat{Name: c.name, Skipped: true})
			continue
		}
		rr := NewReporter(c.name)
		c.run(rr)
		rep.Checks = append(rep.Checks, CheckStat{Name: c.name, Elements: s.Mesh.NumTriangles(), Violations: rr.Count()})
		rep.Violations = append(rep.Violations, rr.Violations()...)
	}
	return rep
}

func tableRun(s *Snapshot) *Report {
	rep := Run(s, tableChecks)
	for i := range rep.Checks {
		rep.Checks[i].Wall, rep.Checks[i].Allocs = 0, 0
	}
	return rep
}

// matchMapReference audits a copy of s both ways and reports any
// difference in the per-check counts or the violation lists, order
// included.
func matchMapReference(t *testing.T, name string, s Snapshot) {
	t.Helper()
	ref := s
	got, want := tableRun(&s), mapRun(&ref)
	if !reflect.DeepEqual(got.Checks, want.Checks) {
		t.Errorf("%s: checks\n got %+v\nwant %+v", name, got.Checks, want.Checks)
	}
	if !reflect.DeepEqual(got.Violations, want.Violations) {
		t.Errorf("%s: %d violations, the map reference %d or in another order\n got %v\nwant %v",
			name, len(got.Violations), len(want.Violations), got.Violations, want.Violations)
	}
}

// gridMesh is an n x n square grid split into 2n² CCW triangles, as mesh's
// TestAuditAgreesWithInvariantAudit builds it but with its interior points
// jittered, so that some diagonals fail the in-circle test.
func gridMesh(n int) *mesh.Mesh {
	b := mesh.NewBuilder()
	pt := gridPoint(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b.AddTriangle(pt(i, j), pt(i+1, j), pt(i+1, j+1))
			b.AddTriangle(pt(i, j), pt(i+1, j+1), pt(i, j+1))
		}
	}
	return b.Mesh()
}

// gridPoint returns gridMesh(n)'s point (i, j).
func gridPoint(n int) func(i, j int) geom.Point {
	return func(i, j int) geom.Point {
		if i == 0 || j == 0 || i == n || j == n {
			return geom.Pt(float64(i), float64(j))
		}
		return geom.Pt(float64(i)+0.07*float64((i+2*j)%3-1), float64(j)+0.05*float64((2*i+j)%3-1))
	}
}

// gridCorruptions are mesh's TestAuditAgreesWithInvariantAudit's eight
// corruptions of an n x n grid, three that reach corners of the table-based
// checks (a corner left on a malformed triangle, a vertex repeated through
// an alias, a reversed copy), and the aliasing and degree corruption of
// TestReportIsDeterministic.
func gridCorruptions(n int) []struct {
	name  string
	apply func(m *mesh.Mesh, rng *rand.Rand)
} {
	return []struct {
		name  string
		apply func(m *mesh.Mesh, rng *rand.Rand)
	}{
		{"none", func(*mesh.Mesh, *rand.Rand) {}},
		{"interior triangle removed", func(m *mesh.Mesh, rng *rand.Rand) {
			k := 2 * ((1+rng.Intn(n-2))*n + 1 + rng.Intn(n-2))
			m.Triangles = append(m.Triangles[:k], m.Triangles[k+1:]...)
		}},
		{"triangle flipped", func(m *mesh.Mesh, rng *rand.Rand) {
			tr := &m.Triangles[rng.Intn(len(m.Triangles))]
			tr[1], tr[2] = tr[2], tr[1]
		}},
		{"triangle repeated", func(m *mesh.Mesh, rng *rand.Rand) {
			tr := m.Triangles[rng.Intn(len(m.Triangles))]
			m.Triangles = append(m.Triangles, [3]int32{tr[1], tr[2], tr[0]})
		}},
		{"second triangle on a directed edge", func(m *mesh.Mesh, rng *rand.Rand) {
			for {
				tr := m.Triangles[rng.Intn(len(m.Triangles))]
				w := int32(rng.Intn(len(m.Points)))
				if w != tr[2] && geom.Orient2DSign(m.Points[tr[0]], m.Points[tr[1]], m.Points[w]) > 0 {
					m.Triangles = append(m.Triangles, [3]int32{tr[0], tr[1], w})
					return
				}
			}
		}},
		{"vertex repeated", func(m *mesh.Mesh, rng *rand.Rand) {
			tr := &m.Triangles[rng.Intn(len(m.Triangles))]
			tr[2] = tr[1]
		}},
		{"vertex out of range", func(m *mesh.Mesh, rng *rand.Rand) {
			m.Triangles[rng.Intn(len(m.Triangles))][rng.Intn(3)] = int32(len(m.Points)) + int32(rng.Intn(5))
		}},
		{"vertex negative", func(m *mesh.Mesh, rng *rand.Rand) {
			m.Triangles[rng.Intn(len(m.Triangles))][rng.Intn(3)] = -1 - int32(rng.Intn(5))
		}},
		{"corner triangle degenerate", func(m *mesh.Mesh, _ *rand.Rand) {
			// The bottom-right corner's only triangle, so the corner is
			// left on a malformed triangle alone.
			tr := &m.Triangles[2*(n-1)]
			tr[2] = tr[1]
		}},
		{"vertex repeated through an alias", func(m *mesh.Mesh, rng *rand.Rand) {
			// Two half-edges between vertex 1 and its copy: an edge of one
			// coordinate that two triangles use.
			i := rng.Intn(len(m.Triangles))
			tr, k := m.Triangles[i], int32(len(m.Points))
			m.Points = append(m.Points, m.Points[tr[1]])
			m.Triangles[i][2] = k
			m.Triangles = append(m.Triangles, [3]int32{k, tr[1], tr[0]})
		}},
		{"triangle repeated reversed, then overlapped", func(m *mesh.Mesh, rng *rand.Rand) {
			// A bottom-row triangle: its first edge is on the boundary, so
			// the reversed copy is the first triangle on that edge's reverse.
			tr := m.Triangles[2*rng.Intn(n)]
			w := int32(n + 1 + rng.Intn(len(m.Points)-n-1))
			m.Triangles = append(m.Triangles, [3]int32{tr[0], tr[2], tr[1]}, [3]int32{tr[1], tr[0], w})
		}},
		{"aliased copies and second triangles", func(m *mesh.Mesh, rng *rand.Rand) {
			corruptAliasing(m, 4+rng.Intn(4), 5+rng.Intn(4))
		}},
	}
}

// corruptAliasing gives every aliasEvery-th triangle a copy over fresh
// points at its corners' coordinates, and every secondEvery-th a second
// triangle on its first directed edge, to the vertex two on in the point
// list.
func corruptAliasing(m *mesh.Mesh, aliasEvery, secondEvery int) {
	nt, np := len(m.Triangles), int32(len(m.Points))
	for i := 0; i < nt; i++ {
		t := m.Triangles[i]
		if i%aliasEvery == 0 {
			k := int32(len(m.Points))
			m.Points = append(m.Points, m.Points[t[0]], m.Points[t[1]], m.Points[t[2]])
			m.Triangles = append(m.Triangles, [3]int32{k, k + 1, k + 2})
		}
		if i%secondEvery == 0 {
			w := (t[2] + 2) % np
			if w == t[0] || w == t[1] {
				w = (w + 1) % np
			}
			m.Triangles = append(m.Triangles, [3]int32{t[0], t[1], w})
		}
	}
}

// gridContext is a snapshot of gridMesh(n) with decoupling paths (the
// middle row and column, the diagonal, a path vertex off the mesh, a
// degenerate path, an edge on the far-field border) and two surfaces: the
// grid's outer boundary, recovered, and a loop through the centre whose
// segments are interior edges or none.
func gridContext(m *mesh.Mesh, n int, strict bool) Snapshot {
	pt, c := gridPoint(n), n/2
	var paths [][2]geom.Point
	for i := 0; i < n; i++ {
		paths = append(paths,
			[2]geom.Point{pt(i, c), pt(i+1, c)},
			[2]geom.Point{pt(c, i), pt(c, i+1)},
			[2]geom.Point{pt(i, i), pt(i+1, i+1)})
	}
	paths = append(paths,
		[2]geom.Point{pt(0, 0), pt(1, 0)},
		[2]geom.Point{pt(0, 0), geom.Pt(0.5, 0.5)},
		[2]geom.Point{pt(1, 1), pt(1, 1)})
	var outer []geom.Point
	for i := 0; i < 4*n; i++ { // counter-clockwise from the origin
		side, k := i/n, i%n
		outer = append(outer, [4]geom.Point{pt(k, 0), pt(n, k), pt(n-k, n), pt(0, n-k)}[side])
	}
	inner := []geom.Point{pt(c-1, c-1), pt(c+1, c-1), pt(c+1, c+1), pt(c-1, c+1), pt(c-1, c)}
	return Snapshot{
		Mesh:           m,
		Layers:         []*blayer.Layer{{Surface: pslg.Loop{Points: outer}}, {Surface: pslg.Loop{Points: inner}}},
		Paths:          paths,
		Farfield:       geom.BBox{Min: pt(0, 0), Max: pt(n, n)},
		StrictDelaunay: strict,
	}
}

// TestAuditMatchesMapReference: on every corruption of the grid, with and
// without paths and surfaces, strict and not, the table-based checks
// report exactly what the map-based ones do: the same per-check counts and
// the same violations in the same order.
func TestAuditMatchesMapReference(t *testing.T) {
	const n = 6
	for _, c := range gridCorruptions(n) {
		for seed := int64(1); seed <= 8; seed++ {
			for _, strict := range []bool{false, true} {
				m := gridMesh(n)
				c.apply(m, rand.New(rand.NewSource(seed)))
				matchMapReference(t, c.name, Snapshot{Mesh: m, StrictDelaunay: strict})
				matchMapReference(t, c.name+" in context", gridContext(m, n, strict))
			}
		}
	}
}

// FuzzAuditMatchesMapReference holds the table-based checks to the map
// reference on index soup over a few lattice points, where coordinate
// duplicates, repeated and out-of-range indices, repeated triangles and
// repeated directed edges are all common, with paths and a surface drawn
// from the same lattice.
func FuzzAuditMatchesMapReference(f *testing.F) {
	// flags: bit 0 strict, bit 1 paths, bit 2 a surface, the rest one less
	// than the triangle count.
	f.Add([]byte{6, 0, 1, 5, 4, 4, 1, 0, 1, 2, 0, 2, 3, 1, 0, 4, 5, 2, 1, 0, 5, 1, 4, 4, 5}, uint8(3<<3|6))
	f.Add([]byte{8, 0, 1, 5, 4, 1, 0, 5, 9, 0, 1, 2, 1, 0, 3, 0, 1, 2, 2, 1, 4, 6, 7, 8, 0, 1, 5, 4, 0}, uint8(5<<3|7))
	f.Add([]byte{5, 0, 2, 8, 2, 0, 0, 1, 2, 2, 1, 3, 0, 3, 2, 129, 1, 4, 0, 2, 8}, uint8(4<<3|3))
	f.Fuzz(func(t *testing.T, data []byte, flags uint8) {
		if len(data) < 1 || len(data) > 512 {
			t.Skip()
		}
		np := 3 + int(data[0])%10
		data = data[1:]
		lattice := func(b byte) geom.Point { return geom.Pt(float64(b%4), float64(b/4%4)) }
		m := &mesh.Mesh{}
		for i := 0; i < np && i < len(data); i++ {
			m.Points = append(m.Points, lattice(data[i]))
		}
		data = data[min(np, len(data)):]
		// Indices reach one past the points, and below zero from 128 up.
		idx := func(b byte) int32 { return int32(b)%int32(len(m.Points)+1) - int32(b/128) }
		for nt := 1 + int(flags>>3); len(data) >= 3 && len(m.Triangles) < nt; data = data[3:] {
			m.Triangles = append(m.Triangles, [3]int32{idx(data[0]), idx(data[1]), idx(data[2])})
		}
		s := Snapshot{Mesh: m, StrictDelaunay: flags&1 != 0}
		if flags&2 != 0 {
			for i := 0; i+1 < len(data); i += 2 {
				s.Paths = append(s.Paths, [2]geom.Point{lattice(data[i]), lattice(data[i+1])})
			}
			s.Farfield = geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(3, 3)}
		}
		if flags&4 != 0 && len(data) > 0 {
			var loop []geom.Point
			for _, b := range data {
				loop = append(loop, lattice(b>>2))
			}
			s.Layers = []*blayer.Layer{{Surface: pslg.Loop{Points: loop}}}
		}
		matchMapReference(t, "fuzz", s)
	})
}
