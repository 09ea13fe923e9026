package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// submesh is what a meshing task hands the root: the indexed mesh its
// kernel produced, in the form mesh.Builder.AddSubmesh takes. pts are in
// order of first appearance in tris (delaunay.Extract and mesh.Builder
// both number points that way); shared lists, ascending, the points
// another task's result may also hold.
//
// As a result vector it is one layout for all three meshing kinds:
//
//	[np, ns, nt, x0, y0 … (2·np), s0 … (ns), a0, b0, c0 … (3·nt)]
type submesh struct {
	pts    []geom.Point
	shared []int32
	tris   [][3]int32
}

// Header slots of an encoded submesh.
const (
	subPoints = iota
	subShared
	subTriangles
	subHeader
)

func (s submesh) encode() []float64 {
	vals := make([]float64, 0, subHeader+2*len(s.pts)+len(s.shared)+3*len(s.tris))
	vals = append(vals, float64(len(s.pts)), float64(len(s.shared)), float64(len(s.tris)))
	for _, p := range s.pts {
		vals = append(vals, p.X, p.Y)
	}
	for _, i := range s.shared {
		vals = append(vals, float64(i))
	}
	for _, t := range s.tris {
		vals = append(vals, float64(t[0]), float64(t[1]), float64(t[2]))
	}
	return vals
}

// wireIndex converts a result float to an index below n <= 2^31. Over TCP
// the vector comes from another process, so anything that is not such an
// index — NaN, infinite, negative, fractional, too large — is refused
// before the conversion, whose result Go leaves undefined for those.
func wireIndex(v float64, n int) (int32, bool) {
	if !(v >= 0 && v < float64(n)) {
		return 0, false
	}
	i := int32(v)
	return i, float64(i) == v
}

// finite reports whether both coordinates of p are finite.
func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// submeshCounts validates an encoded submesh's header against the
// vector's length and returns the point, shared-point and triangle counts.
func submeshCounts(vals []float64) (np, ns, nt int, err error) {
	if len(vals) < subHeader {
		return 0, 0, 0, fmt.Errorf("core: submesh of %d floats has no header", len(vals))
	}
	p, okP := wireIndex(vals[subPoints], math.MaxInt32)
	s, okS := wireIndex(vals[subShared], int(p)+1)
	t, okT := wireIndex(vals[subTriangles], math.MaxInt32)
	if !okP || !okS || !okT {
		return 0, 0, 0, fmt.Errorf("core: submesh header %v is not point, shared (at most the points) and triangle counts", vals[:subHeader])
	}
	if want := subHeader + 2*int64(p) + int64(s) + 3*int64(t); int64(len(vals)) != want {
		return 0, 0, 0, fmt.Errorf("core: submesh header %v implies %d floats, have %d", vals[:subHeader], want, len(vals))
	}
	return int(p), int(s), int(t), nil
}

// decode replaces s with the submesh encoded in vals, reusing s's
// storage, and checks everything AddSubmesh relies on: shared indices
// ascending, every index below the point count.
func (s *submesh) decode(vals []float64) error {
	np, ns, nt, err := submeshCounts(vals)
	if err != nil {
		return err
	}
	s.pts = slices.Grow(s.pts[:0], np)
	s.shared = slices.Grow(s.shared[:0], ns)
	s.tris = slices.Grow(s.tris[:0], nt)
	vals = vals[subHeader:]
	for i := 0; i < np; i++ {
		s.pts = append(s.pts, geom.Pt(vals[2*i], vals[2*i+1]))
	}
	vals = vals[2*np:]
	for k, v := range vals[:ns] {
		i, ok := wireIndex(v, np)
		if !ok || k > 0 && i <= s.shared[k-1] {
			return fmt.Errorf("core: submesh shared entry %d is %v: not an ascending index below %d", k, v, np)
		}
		s.shared = append(s.shared, i)
	}
	vals = vals[ns:]
	for k := 0; k < nt; k++ {
		a, okA := wireIndex(vals[3*k], np)
		b, okB := wireIndex(vals[3*k+1], np)
		c, okC := wireIndex(vals[3*k+2], np)
		if !okA || !okB || !okC {
			return fmt.Errorf("core: submesh triangle %d is %v: not indices below %d", k, vals[3*k:3*k+3], np)
		}
		s.tris = append(s.tris, [3]int32{a, b, c})
	}
	return nil
}

// addSubmeshes decodes the meshing tasks' results and adds them to b in
// task order.
func addSubmeshes(b *mesh.Builder, results [][]float64) error {
	points, tris := 0, 0
	for i, r := range results {
		np, _, nt, err := submeshCounts(r)
		if err != nil {
			return fmt.Errorf("task %d result: %w", i, err)
		}
		points += np
		tris += nt
	}
	b.Reserve(points, tris)
	var s submesh
	for i, r := range results {
		if err := s.decode(r); err != nil {
			return fmt.Errorf("task %d result: %w", i, err)
		}
		s.addTo(b)
	}
	return nil
}

func (s submesh) addTo(b *mesh.Builder) { b.AddSubmesh(s.pts, s.shared, s.tris) }

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
// accepts, renumbered in order of first appearance. Only the leaf's path
// points are flagged shared: a triangle belongs to the leaf owning its
// circumcenter, so a point can be a corner in a neighbouring leaf's result
// only if the decomposition dealt it to that leaf as well. delaunay.Extract
// numbers points by first appearance, not in input order, so each kept
// point is looked up among the path points (onPath).
func blSubmesh(res *delaunay.Result, path []geom.Point, keep func(a, b, c geom.Point) bool) submesh {
	remap := make([]int32, len(res.Points))
	for i := range remap {
		remap[i] = -1
	}
	s := submesh{
		pts:    make([]geom.Point, 0, len(res.Points)),
		shared: make([]int32, 0, len(path)),
		tris:   make([][3]int32, 0, len(res.Triangles)),
	}
	for _, tri := range res.Triangles {
		if !keep(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]) {
			continue
		}
		for k, v := range tri {
			if remap[v] < 0 {
				remap[v] = int32(len(s.pts))
				p := res.Points[v]
				if onPath(path, p) {
					s.shared = append(s.shared, remap[v])
				}
				s.pts = append(s.pts, p)
			}
			tri[k] = remap[v]
		}
		s.tris = append(s.tris, tri)
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
