// Package project implements the projection-based parallel Delaunay
// decomposition of Blelloch, Miller and Talmor used by the paper to
// triangulate the boundary layer: a subdomain of vertices is split by a
// median line; the Delaunay edges crossing the median line (the dividing
// path) are found as the lower convex hull of the vertices projected onto
// a paraboloid centered at the median vertex and flattened onto the
// vertical plane perpendicular to the cut axis (paper Figures 6 and 7).
// Each leaf subdomain is triangulated independently by the sequential
// kernel, and triangles are assigned to the leaf whose region contains
// their circumcenter, which reconstitutes exactly the Delaunay
// triangulation of the whole point set.
//
// The Subdomain data layout follows the paper's implementation section:
// vertices are stored contiguously in both x-sorted and y-sorted order, so
// the bounding box and the median are O(1) and splits are linear with a
// comparison-free copy of the primary-sorted half.
package project

import (
	"cmp"
	"math"
	"math/bits"
	"runtime"
	"slices"

	"pamg2d/internal/geom"
)

// Vertex is a point with its global id. The paraboloid lift a split
// projects it to depends on the split's median, so it is computed into
// the splitter's scratch, never stored here.
type Vertex struct {
	P  geom.Point
	ID int32
}

// Subdomain is a set of vertices held in two sort orders, plus the
// axis-aligned region of the plane whose circumcenters it owns.
type Subdomain struct {
	// XS holds the vertices sorted lexicographically by (X, Y); YS holds
	// the same vertices sorted by (Y, X).
	XS, YS []Vertex
	// Region is the rectangle of circumcenter space owned by this
	// subdomain; triangles whose circumcenter falls here belong to it.
	Region Rect
	// Depth is the recursion depth at which this subdomain was created.
	Depth int
}

// Rect is an axis-aligned, half-open region [MinX,MaxX) x [MinY,MaxY),
// unbounded at infinities.
type Rect struct {
	MinX, MaxX, MinY, MaxY float64
}

// WholePlane returns the unbounded region.
func WholePlane() Rect {
	return Rect{math.Inf(-1), math.Inf(1), math.Inf(-1), math.Inf(1)}
}

// Contains reports whether p lies in the half-open region.
func (r Rect) Contains(p geom.Point) bool {
	return p.X >= r.MinX && p.X < r.MaxX && p.Y >= r.MinY && p.Y < r.MaxY
}

// New builds the root subdomain from a point set, assigning global ids in
// input order. Duplicate points are dropped (keeping the first), since the
// comparison-free median split requires distinct vertices.
//
// The two orders are geom's point orders, built concurrently; both list a
// duplicate group's lowest index first, so XS and YS hold the same
// vertices.
func New(pts []geom.Point) *Subdomain {
	var ys []Vertex
	done := make(chan struct{})
	go func() {
		defer close(done)
		ys = distinct(pts, geom.OrderYX(pts))
	}()
	xs := distinct(pts, geom.OrderXY(pts))
	<-done
	return &Subdomain{XS: xs, YS: ys, Region: WholePlane()}
}

// distinct returns the points of pts in the given order, each with its
// index, dropping every point equal to the one before it.
func distinct(pts []geom.Point, order []int32) []Vertex {
	out := make([]Vertex, 0, len(order))
	for _, i := range order {
		if p := pts[i]; len(out) == 0 || out[len(out)-1].P != p {
			out = append(out, Vertex{P: p, ID: i})
		}
	}
	return out
}

// Len returns the number of vertices.
func (s *Subdomain) Len() int { return len(s.XS) }

// BBox returns the bounding box in O(1) using the first and last vertices
// of the two sorted arrays.
func (s *Subdomain) BBox() geom.BBox {
	if len(s.XS) == 0 {
		return geom.EmptyBBox()
	}
	return geom.BBox{
		Min: geom.Pt(s.XS[0].P.X, s.YS[0].P.Y),
		Max: geom.Pt(s.XS[len(s.XS)-1].P.X, s.YS[len(s.YS)-1].P.Y),
	}
}

// CutVertical reports whether the next cut should use a vertical median
// line (x = median): chosen when the box is wider than tall, i.e. the cut
// axis is parallel to the shortest bounding-box edge, avoiding long skinny
// subdomains that are expensive to triangulate.
func (s *Subdomain) CutVertical() bool {
	bb := s.BBox()
	return bb.Width() >= bb.Height()
}

// PathEdge is one Delaunay edge of a dividing path.
type PathEdge struct {
	A, B Vertex
}

// Split divides the subdomain at the median of its longer axis. It
// returns the two halves and the dividing path of Delaunay edges. Hull
// (path) vertices are duplicated into both halves, as the algorithm
// requires. Split leaves s unusable (its storage is reused by the left
// half, another implementation note from the paper).
func (s *Subdomain) Split() (left, right *Subdomain, path []PathEdge) {
	var sp splitter
	return sp.split(s, s.CutVertical())
}

// splitter carries the projection scratch from one split to the next:
// the flattened points, the order the lower chain reads them in, and the
// chain.
type splitter struct {
	flat        []geom.Point
	order, hull []int32
}

func (sp *splitter) split(s *Subdomain, vertical bool) (left, right *Subdomain, path []PathEdge) {
	n := len(s.XS)
	if n < 2 {
		return s, nil, nil
	}

	var primary, secondary []Vertex // primary: sorted along the split axis
	if vertical {
		primary, secondary = s.XS, s.YS
	} else {
		primary, secondary = s.YS, s.XS
	}
	m := n / 2
	median := primary[m]

	// Project every vertex onto the paraboloid centered at the median
	// vertex and flatten onto the plane perpendicular to the cut axis.
	// The flattened abscissa is the coordinate along the median line; the
	// ordinate is the lift. The secondary array is already sorted by the
	// abscissa, so the lower chain runs in linear time over an order that
	// is the identity except in runs of equal abscissa (rare), which it
	// lists by the lift. The stores themselves stay sorted.
	if cap(sp.flat) < len(secondary) {
		sp.flat = make([]geom.Point, len(secondary))
		sp.order = make([]int32, len(secondary))
		sp.hull = make([]int32, 0, len(secondary))
	}
	flat, order := sp.flat[:len(secondary)], sp.order[:len(secondary)]
	for i := range secondary {
		v := &secondary[i]
		dx := v.P.X - median.P.X
		dy := v.P.Y - median.P.Y
		lift := dx*dx + dy*dy
		if vertical {
			flat[i] = geom.Pt(v.P.Y, lift)
		} else {
			flat[i] = geom.Pt(v.P.X, lift)
		}
		order[i] = int32(i)
	}
	for i := 0; i < len(flat); {
		j := i + 1
		for j < len(flat) && flat[j].X == flat[i].X {
			j++
		}
		if j-i > 1 {
			slices.SortStableFunc(order[i:j], func(a, b int32) int { return cmp.Compare(flat[a].Y, flat[b].Y) })
		}
		i = j
	}
	hullIdx := lowerSorted(flat, order, sp.hull[:0])

	// Duplicate hull vertices into the half they are missing from: the
	// left extras fill the buffer from the front, the right from the back.
	extras := make([]Vertex, len(hullIdx))
	nl, nr := 0, len(extras)
	if len(hullIdx) > 1 {
		path = make([]PathEdge, 0, len(hullIdx)-1)
	}
	for i, hi := range hullIdx {
		v := secondary[hi]
		if i > 0 {
			path = append(path, PathEdge{secondary[hullIdx[i-1]], v})
		}
		if before(&v, &median, vertical) {
			nr--
			extras[nr] = v
		} else {
			extras[nl] = v
			nl++
		}
	}
	addLeft, addRight := extras[:nl], extras[nr:]

	left = &Subdomain{Region: s.Region, Depth: s.Depth + 1}
	right = &Subdomain{Region: s.Region, Depth: s.Depth + 1}
	if vertical {
		cut := median.P.X
		left.Region.MaxX = math.Min(left.Region.MaxX, cut)
		right.Region.MinX = math.Max(right.Region.MinX, cut)
	} else {
		cut := median.P.Y
		left.Region.MaxY = math.Min(left.Region.MaxY, cut)
		right.Region.MinY = math.Max(right.Region.MinY, cut)
	}

	// The primary halves are a comparison-free split at the median index
	// (the paper's memcpy optimization) plus their extras.
	lp := mergeSorted(primary[:m], addLeft, vertical)
	rp := mergeSorted(primary[m:], addRight, vertical)

	// The secondary array is partitioned against the median vertex and
	// each half merged with its extras in the same pass; its halves hold
	// the primary halves' vertices.
	sortVertices(addLeft, !vertical)
	sortVertices(addRight, !vertical)
	ls := make([]Vertex, 0, len(lp))
	rs := make([]Vertex, 0, len(rp))
	i, j := 0, 0
	for k := range secondary {
		v := &secondary[k]
		if before(v, &median, vertical) {
			for i < len(addLeft) && !before(v, &addLeft[i], !vertical) {
				ls = append(ls, addLeft[i])
				i++
			}
			ls = append(ls, *v)
		} else {
			for j < len(addRight) && !before(v, &addRight[j], !vertical) {
				rs = append(rs, addRight[j])
				j++
			}
			rs = append(rs, *v)
		}
	}
	ls = append(ls, addLeft[i:]...)
	rs = append(rs, addRight[j:]...)

	if vertical {
		left.XS, right.XS, left.YS, right.YS = lp, rp, ls, rs
	} else {
		left.YS, right.YS, left.XS, right.XS = lp, rp, ls, rs
	}
	return left, right, path
}

// before reports whether a comes before b in geom's (X, Y) order when
// byX, else in its (Y, X) order.
func before(a, b *Vertex, byX bool) bool {
	if byX {
		return geom.Compare(a.P, b.P) < 0
	}
	return geom.CompareYX(a.P, b.P) < 0
}

func sortVertices(v []Vertex, byX bool) {
	if byX {
		slices.SortFunc(v, func(a, b Vertex) int { return geom.Compare(a.P, b.P) })
	} else {
		slices.SortFunc(v, func(a, b Vertex) int { return geom.CompareYX(a.P, b.P) })
	}
}

// lowerSorted appends to h the indices of the points on the lower convex
// hull of pts, read in the given order, which must list them
// lexicographically by (X, Y): Andrew's monotone chain, linear on sorted
// input. The hull runs left to right and includes both extreme points;
// collinear points on it are left out.
func lowerSorted(pts []geom.Point, order []int32, h []int32) []int32 {
	for _, i := range order {
		// Pop while the last two hull points and pts[i] do not make a
		// strict left turn: the middle point is not on the lower hull.
		for len(h) >= 2 && geom.Orient2DSign(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	return h
}

// mergeSorted merges a base slice sorted by x (byX) or y with a small
// extras slice in linear time. extras is sorted in place (callers pass
// scratch that every merge re-sorts for its own order, so no defensive
// copy is needed).
func mergeSorted(base, extras []Vertex, byX bool) []Vertex {
	if len(extras) == 0 {
		// Reuse the parent's storage (the paper reuses the original
		// subdomain's allocation for the left half); the parent is dead
		// after the split.
		return base
	}
	sortVertices(extras, byX)
	out := make([]Vertex, 0, len(base)+len(extras))
	i, j := 0, 0
	for i < len(base) && j < len(extras) {
		if before(&base[i], &extras[j], byX) {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, extras[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, extras[j:]...)
	return out
}

// Points returns the subdomain's points in x-sorted order. The kernel
// takes them in any order: it inserts a point cloud along its Hilbert
// curve.
func (s *Subdomain) Points() []geom.Point {
	out := make([]geom.Point, len(s.XS))
	for i, v := range s.XS {
		out[i] = v.P
	}
	return out
}

// DropYSorted releases the y-sorted array once a subdomain is sufficiently
// decomposed: only the x-sorted vertices are needed by the kernel. In the
// paper this also halves the cost of transferring the subdomain to another
// process; here every process holds every leaf and a steal moves only the
// task's header, so it frees memory.
func (s *Subdomain) DropYSorted() { s.YS = nil }

// Options bounds the recursive decomposition.
type Options struct {
	// MinVerts stops splitting a subdomain smaller than this.
	MinVerts int
	// MaxDepth stops splitting at this recursion depth; the paper derives
	// it from the number of processes.
	MaxDepth int
	// ForceVertical always cuts with a vertical median line instead of the
	// shortest-bbox-edge rule (ablation switch).
	ForceVertical bool
}

// Decompose recursively splits the root subdomain until every leaf is
// sufficiently decomposed, returning the leaves (left before right) and
// all dividing paths (in preorder).
//
// A split's children own disjoint stores. So while the children's depth
// holds at most GOMAXPROCS subtrees (on two CPUs, the root's children
// only), the right child is split on a goroutine of its own, with its own
// splitter, while the caller splits the left. The result does not depend
// on the forking: each subtree collects its own leaves and paths, and the
// caller appends the right's after the left's. A panic in a forked
// subtree is re-raised on the caller's goroutine once the left subtree is
// done.
func Decompose(root *Subdomain, opt Options) (leaves []*Subdomain, paths []PathEdge) {
	if opt.MinVerts < 2 {
		opt.MinVerts = 2
	}
	d := decomposer{opt: opt, forkDepth: bits.Len(uint(runtime.GOMAXPROCS(0))) - 1}
	var out subtree
	d.rec(new(splitter), root, &out)
	n := 0
	for _, p := range out.paths {
		n += len(p)
	}
	if n > 0 {
		paths = make([]PathEdge, 0, n)
		for _, p := range out.paths {
			paths = append(paths, p...)
		}
	}
	return out.leaves, paths
}

// decomposer holds a decomposition's bounds. Subtrees rooted above
// forkDepth split their right child on a goroutine of its own.
type decomposer struct {
	opt       Options
	forkDepth int
}

// subtree collects one subtree's leaves and its splits' dividing paths.
type subtree struct {
	leaves []*Subdomain
	paths  [][]PathEdge
}

func (d *decomposer) rec(sp *splitter, s *Subdomain, out *subtree) {
	if s.Len() < d.opt.MinVerts || (d.opt.MaxDepth > 0 && s.Depth >= d.opt.MaxDepth) {
		out.leaves = append(out.leaves, s)
		return
	}
	n := s.Len()
	vertical := s.CutVertical()
	if d.opt.ForceVertical {
		vertical = true
	}
	l, r, p := sp.split(s, vertical)
	if r == nil || l.Len() >= n || r.Len() >= n {
		// The split made no progress (degenerate data); stop here.
		out.leaves = append(out.leaves, s)
		return
	}
	out.paths = append(out.paths, p)
	if s.Depth >= d.forkDepth {
		d.rec(sp, l, out)
		d.rec(sp, r, out)
		return
	}
	var right subtree
	var failed any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { failed = recover() }()
		d.rec(new(splitter), r, &right)
	}()
	func() {
		defer func() { <-done }()
		d.rec(sp, l, out)
	}()
	if failed != nil {
		panic(failed)
	}
	out.leaves = append(out.leaves, right.leaves...)
	out.paths = append(out.paths, right.paths...)
}
