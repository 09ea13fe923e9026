// Package sizing implements the sizing functions driving both the graded
// Delaunay decoupling of the inviscid region and Triangle-style area
// constraints during refinement, plus the k-formula (equation 1 of the
// paper) that converts a target area into the decoupling edge length.
//
// The paper's field is a function of the distance to the body. Graded
// finds that distance with an exact static index of the surface points,
// and declares the field's slope (Slope) so that refinement can ask it
// once per inserted vertex rather than once per triangle it creates.
package sizing

import (
	"cmp"
	"math"
	"slices"

	"pamg2d/internal/geom"
)

// Func returns the target triangle area near a point. Implementations must
// be safe for concurrent use: every rank evaluates the sizing function
// independently during decoupling and refinement.
type Func func(geom.Point) float64

// K converts a target triangle area A into the decoupling edge length of
// equation (1): k = sqrt(A / sqrt(2)) / 2, derived from the termination
// bounds of Ruppert's Delaunay refinement so that independently refined
// subdomains stay globally Delaunay across the shared border.
func K(area float64) float64 {
	return 0.5 * math.Sqrt(area/math.Sqrt2)
}

// AreaForEdge is the inverse of K: the triangle area whose decoupling edge
// length is k.
func AreaForEdge(k float64) float64 {
	return 4 * k * k * math.Sqrt2
}

// Graded builds the paper's distance-based gradation: triangles have edge
// length H0 near the body surface, growing linearly with distance d at
// rate Gradation until capped at HMax near the far field. The target area
// is that of an equilateral triangle with the local edge length:
// sqrt(3)/4 * h^2.
//
// The distance is to the nearest surface point, found in a static k-d tree
// of bounding boxes (DESIGN §7, "Nearest-surface index"). A Graded is
// immutable after NewGraded apart from the three exported fields and is
// safe for concurrent use.
type Graded struct {
	// pts holds a copy of the surface points in k-d order: node 0 covers
	// all of it, and a node covering more than leafSize points splits its
	// range at the middle position, so a node's range follows from its
	// number and is never stored.
	pts []geom.Point
	// box holds one bounding box per node, heap-numbered: the children of
	// node i are 2i+1 (the lower half of its range) and 2i+2.
	box []geom.BBox

	H0        float64
	Gradation float64
	HMax      float64
}

// leafSize is the largest range scanned point by point. On a NACA loop of
// 256 and of 1,536 points, queried 0.1 to 16 chords away, 4, 8 and 16 cost
// the same per query within the host's noise.
const leafSize = 8

// stackSize bounds the explicit stack of a query: one pending sibling per
// level, so it is reached beyond leafSize << stackSize points, and a range
// met with the stack full is scanned whole.
const stackSize = 24

// NewGraded builds a graded sizing function from the body surface points.
// h0 is the surface edge length, gradation the growth per unit distance
// (0.2 means edges grow by 20% of the distance from the body), hmax the
// far-field cap. The points are copied; any coordinates are accepted, and
// a point with a NaN or infinite coordinate is never the nearest.
func NewGraded(surface []geom.Point, h0, gradation, hmax float64) *Graded {
	g := &Graded{pts: slices.Clone(surface), H0: h0, Gradation: gradation, HMax: hmax}
	nodes := 1
	for n := len(surface); n > leafSize; n -= n / 2 {
		nodes = 2*nodes + 1
	}
	g.box = make([]geom.BBox, nodes)
	g.build(0, 0, len(g.pts))
	return g
}

// build fills in the box of node, which covers pts[lo:hi], and splits the
// range at its middle position along the longer side of that box. The
// depth is ceil(log2(n/leafSize)) whatever the coordinates: duplicate,
// collinear or non-finite points make boxes that overlap or prune nothing,
// never a deeper tree.
func (g *Graded) build(node, lo, hi int) {
	b := geom.BBoxOf(g.pts[lo:hi])
	g.box[node] = b
	if hi-lo <= leafSize {
		return
	}
	if b.Width() >= b.Height() {
		slices.SortFunc(g.pts[lo:hi], func(p, q geom.Point) int { return cmp.Compare(p.X, q.X) })
	} else {
		slices.SortFunc(g.pts[lo:hi], func(p, q geom.Point) int { return cmp.Compare(p.Y, q.Y) })
	}
	mid := lo + (hi-lo)/2
	g.build(2*node+1, lo, mid)
	g.build(2*node+2, mid, hi)
}

// boxDistSq returns the squared distance from p to b, zero inside. It is a
// lower bound on the squared distance the leaf scan computes for any point
// q in b, in floating point and not only on paper: |p.X - q.X| is at least
// the gap to the box's nearer side exactly, and IEEE subtraction, squaring
// and addition are monotone, so the rounded results keep the order. A NaN
// in p compares false and contributes a gap of zero.
func boxDistSq(b *geom.BBox, p geom.Point) float64 {
	var dx, dy float64
	if p.X < b.Min.X {
		dx = b.Min.X - p.X
	} else if p.X > b.Max.X {
		dx = p.X - b.Max.X
	}
	if p.Y < b.Min.Y {
		dy = b.Min.Y - p.Y
	} else if p.Y > b.Max.Y {
		dy = p.Y - b.Max.Y
	}
	return dx*dx + dy*dy
}

// Distance returns the exact distance from p to the nearest surface point:
// the bits a scan of every point with `d := dx*dx + dy*dy; d < best` would
// return, +Inf when no point is at a finite distance (a NaN or infinite
// p), 0 for an empty surface.
func (g *Graded) Distance(p geom.Point) float64 {
	if len(g.pts) == 0 {
		return 0
	}
	return math.Sqrt(g.nearestSq(p))
}

// nearestSq walks the tree nearer child first and skips a node whose box
// is no closer than the best point so far; by boxDistSq's bound no point
// in it can lower the minimum, and a minimum over the same floats does not
// depend on the order they are met in. The stack lives in the caller's
// frame, so queries share nothing.
func (g *Graded) nearestSq(p geom.Point) float64 {
	type frame struct {
		dsq          float64
		node, lo, hi int
	}
	var stack [stackSize]frame
	stack[0] = frame{0, 0, 0, len(g.pts)} // the root is never pruned
	best := math.Inf(1)
	for sp := 1; sp > 0; {
		sp--
		f := stack[sp]
		// A NaN bound (NaN query) prunes nothing: the walk degrades to the
		// scan, which is also what the answer then is.
		for !(f.dsq >= best) {
			if f.hi-f.lo <= leafSize || sp == stackSize {
				for _, q := range g.pts[f.lo:f.hi] {
					dx := p.X - q.X
					dy := p.Y - q.Y
					if d := dx*dx + dy*dy; d < best {
						best = d
					}
				}
				break
			}
			mid := f.lo + (f.hi-f.lo)/2
			near := frame{boxDistSq(&g.box[2*f.node+1], p), 2*f.node + 1, f.lo, mid}
			far := frame{boxDistSq(&g.box[2*f.node+2], p), 2*f.node + 2, mid, f.hi}
			if far.dsq < near.dsq {
				near, far = far, near
			}
			stack[sp] = far
			sp++
			f = near
		}
	}
	return best
}

// EdgeLength returns the target edge length at p: min(H0 + Gradation*d,
// HMax) for d = Distance(p). When the whole surface's box is already far
// enough for the cap, HMax is returned without a search: the box distance
// is a lower bound on d (boxDistSq), sqrt and a positive Gradation keep the
// order, so the searched value would exceed HMax too.
func (g *Graded) EdgeLength(p geom.Point) float64 {
	if g.HMax > 0 && g.Gradation > 0 && len(g.pts) > 0 &&
		g.H0+g.Gradation*math.Sqrt(boxDistSq(&g.box[0], p)) > g.HMax {
		return g.HMax
	}
	h := g.H0 + g.Gradation*g.Distance(p)
	if g.HMax > 0 && h > g.HMax {
		h = g.HMax
	}
	return h
}

// Area returns the target triangle area at p (equilateral with the local
// edge length). It satisfies the sizing.Func contract.
func (g *Graded) Area(p geom.Point) float64 {
	h := g.EdgeLength(p)
	return math.Sqrt(3) / 4 * h * h
}

// maxSlopeGradation bounds the gradations Slope declares for. The distance
// is exact to a few ulps only where its square is a normal number; below
// that it is off by up to 2^-536 absolutely, which Gradation scales into
// the edge length, and up to this gradation that stays below 2^-44 of any
// edge length of 2^-400 or more.
const maxSlopeGradation = 0x1p60

// Slope returns a slope of the square root of Area, the
// delaunay.Quality.SizeSlope contract: the edge length min(H0 +
// Gradation·d, HMax) is Gradation-Lipschitz because the distance d is
// 1-Lipschitz, and √Area is sqrt(√3/4) times the edge length. With H0 and
// Gradation non-negative nothing cancels, so Area's computed value is
// within a few ulps of the exact one and the contract's rounding clause
// holds. A negative H0 or Gradation can cancel to an edge length of any
// relative error, and a zero Gradation asks for nothing; Slope returns 0,
// no declaration, for those and for non-finite parameters.
func (g *Graded) Slope() float64 {
	if !(g.H0 >= 0 && g.Gradation > 0 && g.Gradation <= maxSlopeGradation) || math.IsInf(g.H0, 1) {
		return 0
	}
	return g.Gradation * math.Sqrt(math.Sqrt(3)/4)
}

// Uniform returns a sizing function with a constant target area.
func Uniform(area float64) Func {
	return func(geom.Point) float64 { return area }
}
