package core

import (
	"cmp"
	"slices"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// submesh is what a meshing task hands the root: the indexed mesh its
// kernel produced, in the form mesh.Builder.AddSubmesh takes. pts are in
// order of first appearance in tris (delaunay.Extract and mesh.Builder
// both number points that way); shared lists, ascending, the points
// another task's result may also hold. A boundary-layer leaf adds the
// edges the root reads the layer's outer boundary from (leafEdges);
// region tasks carry none. In-process it reaches the root as it is; only
// the task-result codec writes it out, for a wire.
type submesh struct {
	pts    []geom.Point
	shared []int32
	tris   [][3]int32
	edges  []leafEdge
}

// leafEdge is a directed edge u→v of a leaf's kept triangle and its kinds,
// edgeOpen, edgeSeam or both.
type leafEdge struct {
	u, v int32
	kind int32
}

const (
	// edgeOpen: the leaf does not keep the triangle across the edge.
	edgeOpen = 1 << iota
	// edgeSeam: both ends are path points, so another leaf may hold the
	// edge, or its reverse, too.
	edgeSeam
	edgeKinds = edgeOpen | edgeSeam
)

// floats is the length of s's float layout in the task-result codec
// (encodeTaskResultRef): the four counts, then two floats a point, one a
// shared index and three a triangle or an edge.
func (s submesh) floats() int {
	return subHeader + 2*len(s.pts) + len(s.shared) + 3*len(s.tris) + 3*len(s.edges)
}

// addSubmeshes adds the meshing tasks' submeshes to b in task order and
// returns the leaves' edges in b's numbering.
func addSubmeshes(b *mesh.Builder, subs []submesh) leafEdges {
	points, tris, edges := 0, 0, 0
	for _, s := range subs {
		points += len(s.pts)
		tris += len(s.tris)
		edges += len(s.edges)
	}
	b.Reserve(points, tris)
	buf := make([]uint64, 0, 2*edges)
	le := leafEdges{open: buf[:0:edges], seam: buf[edges:edges]}
	for _, s := range subs {
		s.addTo(b, &le)
	}
	return le
}

// addTo adds s to b and s's edges to le, which may be nil for a submesh
// without edges.
func (s submesh) addTo(b *mesh.Builder, le *leafEdges) {
	at := b.AddSubmesh(s.pts, s.shared, s.tris)
	for _, e := range s.edges {
		k := uint64(at[e.u])<<32 | uint64(at[e.v])
		if e.kind&edgeOpen != 0 {
			le.open = append(le.open, k)
		}
		if e.kind&edgeSeam != 0 {
			le.seam = append(le.seam, k)
		}
	}
}

// leafEdges are the boundary-layer leaves' open and seam edges in the
// builder's numbering, the directed edge u→v as u<<32 | v.
type leafEdges struct{ open, seam []uint64 }

// mergeBoundaryLayer adds the boundary-layer leaves' results to a new
// builder and returns it with the layer mesh's outer boundary: its
// boundary edges whose ends are not both surface points, as segments over
// their points in order of first appearance. It declares those points
// shared, since the transition task holds them too and only path points
// went through the builder's index.
//
// A kept triangle's edge is on the mesh boundary when no triangle of any
// leaf holds its reverse. Its own leaf holds the reverse only if it keeps
// the triangle across, so the edge must be open; another leaf can hold the
// reverse only if the decomposition dealt it both ends, so there the
// reverse is a seam edge. The boundary is therefore the open edges whose
// reverse is no leaf's seam edge, in the order Mesh.BoundaryEdges gives.
// Seam edges, not the other leaves' open ones, are what cancel: when two
// leaves keep the same triangle the builder adds it once, and the reverse
// of one leaf's open edge can be an edge the other keeps on both sides.
func mergeBoundaryLayer(subs []submesh, surfaceSet map[geom.Point]bool) (b *mesh.Builder, pts []geom.Point, segs [][2]int32) {
	b = mesh.NewBuilder()
	le := addSubmeshes(b, subs)
	m := b.Mesh()
	slices.Sort(le.seam)
	slices.Sort(le.open)
	open := slices.Compact(le.open)
	// The outer boundary is closed loops, so it has no more points than
	// segments.
	local := make([]int32, len(m.Points)) // 1 + a mesh point's index in pts, 0 if absent
	pts, idx, segs := make([]geom.Point, 0, len(open)), make([]int32, 0, len(open)), make([][2]int32, 0, len(open))
	intern := func(v int32) int32 {
		if local[v] == 0 {
			pts = append(pts, m.Points[v])
			idx = append(idx, v)
			local[v] = int32(len(pts))
		}
		return local[v] - 1
	}
	for _, k := range open {
		u, v := int32(k>>32), int32(uint32(k))
		if _, held := slices.BinarySearch(le.seam, uint64(v)<<32|uint64(u)); held {
			continue
		}
		if surfaceSet[m.Points[u]] && surfaceSet[m.Points[v]] {
			continue // body surface edge
		}
		segs = append(segs, [2]int32{intern(u), intern(v)})
	}
	b.Share(idx)
	return b, pts, segs
}

// regionSubmesh flags a region task's kernel output: only the task's input
// points — the region border the decoupling fixed point for point, for a
// transition task also the boundary layer's outer boundary — can belong to
// a neighbour as well. Everything the kernel inserted lies strictly inside
// the region.
func regionSubmesh(pts []geom.Point, tris [][3]int32, input []geom.Point) submesh {
	in := make(map[geom.Point]struct{}, len(input))
	for _, p := range input {
		in[p] = struct{}{}
	}
	shared := make([]int32, 0, len(input))
	for i, p := range pts {
		if _, ok := in[p]; ok {
			shared = append(shared, int32(i))
		}
	}
	return submesh{pts: pts, shared: shared, tris: tris}
}

// blSubmesh is the part of a boundary-layer triangulation that keep
// accepts, renumbered in order of first appearance, with the edges the
// root needs for the layer's outer boundary (mergeBoundaryLayer); nb is
// the triangulation's neighbours (delaunay.Triangulation.ExtractNeighbors).
// Only the leaf's path points are flagged shared: a triangle belongs to
// the leaf owning its circumcenter, so a point can be a corner in a
// neighbouring leaf's result only if the decomposition dealt it to that
// leaf as well. delaunay.Extract numbers points by first appearance, not
// in input order, so each kept point is looked up among the path points
// (onPath).
func blSubmesh(res *delaunay.Result, nb [][3]int32, path []geom.Point, keep func(a, b, c geom.Point) bool) submesh {
	// A result point's index in s.pts, then a result triangle's in s.tris,
	// -1 while not kept; then whether a kept result point is a path point.
	np, nt := len(res.Points), len(res.Triangles)
	at := make([]int32, 2*np+nt)
	for i := range at[:np+nt] {
		at[i] = -1
	}
	remap, kept, isPath := at[:np], at[np:np+nt], at[np+nt:]
	s := submesh{
		pts:    make([]geom.Point, 0, np),
		shared: make([]int32, 0, len(path)),
		tris:   make([][3]int32, 0, nt),
	}
	for i, tri := range res.Triangles {
		if !keep(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]) {
			continue
		}
		for k, v := range tri {
			if remap[v] < 0 {
				remap[v] = int32(len(s.pts))
				p := res.Points[v]
				if onPath(path, p) {
					isPath[v] = 1
					s.shared = append(s.shared, remap[v])
				}
				s.pts = append(s.pts, p)
			}
			tri[k] = remap[v]
		}
		kept[i] = int32(len(s.tris))
		s.tris = append(s.tris, tri)
	}
	// Each kept triangle's edge kinds, counted and then listed.
	kindsOf := func(i int) (k [3]int32) {
		tri := res.Triangles[i]
		for e, n := range nb[i] {
			if n < 0 || kept[n] < 0 {
				k[e] = edgeOpen
			}
			if isPath[tri[e]]&isPath[tri[(e+1)%3]] != 0 {
				k[e] |= edgeSeam
			}
		}
		return k
	}
	n := 0
	for i, t := range kept {
		if t >= 0 {
			for _, k := range kindsOf(i) {
				if k != 0 {
					n++
				}
			}
		}
	}
	s.edges = make([]leafEdge, 0, n)
	for i, t := range kept {
		if t >= 0 {
			tri := s.tris[t]
			for e, k := range kindsOf(i) {
				if k != 0 {
					s.edges = append(s.edges, leafEdge{tri[e], tri[(e+1)%3], k})
				}
			}
		}
	}
	return s
}

// onPath reports whether p is one of path's points, which are in a leaf's
// x-sorted order: X never decreases, but points of equal X can come in any
// order (the projection's tie fix-up reorders such runs by their lift), so
// a binary search finds the run of p's X and a scan of that run finds p.
func onPath(path []geom.Point, p geom.Point) bool {
	i, _ := slices.BinarySearchFunc(path, p.X, func(q geom.Point, x float64) int { return cmp.Compare(q.X, x) })
	for ; i < len(path) && path[i].X == p.X; i++ {
		if path[i] == p {
			return true
		}
	}
	return false
}
