// Package decouple implements the Graded Delaunay Decoupling method of
// Linardakis & Chrisochoides used by the paper for the isotropic inviscid
// region: the annulus between the near-body box and the far field is split
// into four quadrants (paper Figure 9) whose shared borders are
// discretized by marching with the edge length of equation (1),
// k = sqrt(A/sqrt(2))/2, derived from the termination bounds of Ruppert's
// refinement. Further subdomains are created with '+'-shaped cuts whose
// new points lie strictly inside the parent subdomain — the cut connects
// to existing border points, so neighbors are never disturbed and no
// communication is needed. Each subdomain can then be refined completely
// independently while the union remains conforming and globally Delaunay.
package decouple

import (
	"fmt"
	"math"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/sizing"
)

// Region is one decoupled subdomain: a convex polygon whose border is
// already discretized to final resolution. Border points are stored in
// counter-clockwise order (the paper stores only the points; edges are
// implicit until the subdomain is refined). Corners marks the four logical
// corner indices within Border, preserved across '+' splits.
type Region struct {
	Border  []geom.Point
	Corners [4]int
	Depth   int
}

// MarchBorder discretizes the straight border from a to b with the
// k-formula spacing: each step is at most 2k (and at least 2k/sqrt(3)) for
// the local k, and never reaches 2k of the next vertex, which keeps
// independently refined neighbors globally Delaunay. The returned slice
// includes a and excludes b. It returns for any input: a sizing value that
// gives no usable k (zero, negative, NaN, infinite) is replaced as below,
// and a border with no finite length is not marched at all.
func MarchBorder(a, b geom.Point, size sizing.Func) []geom.Point {
	out := []geom.Point{a}
	// A length to step by or to cover: positive and finite, which NaN fails.
	usable := func(x float64) bool { return x > 0 && !math.IsInf(x, 1) }
	total := a.Dist(b)
	if !usable(total) {
		return out
	}
	dir := b.Sub(a).Unit()
	pos := 0.0
	cur := a
	for {
		k := sizing.K(size(cur))
		if !usable(k) {
			k = total / 4
		}
		// Propose a step in [2k/sqrt(3), 2k); use the midpoint of the
		// admissible range.
		step := k * (2/math.Sqrt(3) + 2) / 2
		// Enforce D < 2*k_next by shrinking until stable.
		for i := 0; i < 8; i++ {
			next := cur.Add(dir.Scale(step))
			kn := sizing.K(size(next))
			if !usable(kn) || step < 2*kn {
				break
			}
			step = 1.8 * kn
		}
		if pos+step >= total-0.5*step {
			// Absorb the remainder into the final edge so no sliver spacing
			// appears at b.
			return out
		}
		pos += step
		cur = a.Add(dir.Scale(pos))
		out = append(out, cur)
	}
}

// InitialQuadrants splits the annulus between the near-body box nb and the
// far-field box ff into four convex trapezoids (Figure 9). The four
// diagonal borders (near-body corner to far-field corner) and the outer
// and inner borders are discretized with MarchBorder; shared borders are
// discretized once so adjacent quadrants hold identical point sequences.
func InitialQuadrants(nb, ff geom.BBox, size sizing.Func) ([4]*Region, error) {
	if nb.Min.X <= ff.Min.X || nb.Max.X >= ff.Max.X || nb.Min.Y <= ff.Min.Y || nb.Max.Y >= ff.Max.Y {
		return [4]*Region{}, fmt.Errorf("decouple: near-body box must lie strictly inside the far field")
	}
	nbc := [4]geom.Point{
		geom.Pt(nb.Min.X, nb.Min.Y), geom.Pt(nb.Max.X, nb.Min.Y),
		geom.Pt(nb.Max.X, nb.Max.Y), geom.Pt(nb.Min.X, nb.Max.Y),
	}
	ffc := [4]geom.Point{
		geom.Pt(ff.Min.X, ff.Min.Y), geom.Pt(ff.Max.X, ff.Min.Y),
		geom.Pt(ff.Max.X, ff.Max.Y), geom.Pt(ff.Min.X, ff.Max.Y),
	}
	// Shared diagonals, marched from the near body toward the far field
	// (the paper marches along shared borders towards the farfield).
	var diag [4][]geom.Point
	for i := 0; i < 4; i++ {
		diag[i] = MarchBorder(nbc[i], ffc[i], size)
	}
	// Outer border edges (far field) and inner border edges (near body).
	var outer, inner [4][]geom.Point
	for i := 0; i < 4; i++ {
		outer[i] = MarchBorder(ffc[i], ffc[(i+1)%4], size)
		inner[i] = MarchBorder(nbc[i], nbc[(i+1)%4], size)
	}
	var out [4]*Region
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		// Quadrant i (counter-clockwise walk): along the near-body edge
		// from nbc_j to nbc_i (the body edge is traversed against its own
		// CCW direction because the quadrant lies outside the body), out
		// along diagonal i to ffc_i, along the far-field edge to ffc_j,
		// and back in along diagonal j.
		var b []geom.Point
		var corners [4]int
		corners[0] = len(b)
		b = append(b, reverseExcl(inner[i], nbc[j])...) // nbc_j .. excl nbc_i
		corners[1] = len(b)
		b = append(b, diag[i]...) // nbc_i .. excl ffc_i
		corners[2] = len(b)
		b = append(b, outer[i]...) // ffc_i .. excl ffc_j
		corners[3] = len(b)
		b = append(b, reverseExcl(diag[j], ffc[j])...) // ffc_j .. excl nbc_j
		out[i] = &Region{Border: b, Corners: corners}
		if polygonArea(b) <= 0 {
			return out, fmt.Errorf("decouple: quadrant %d not counter-clockwise", i)
		}
	}
	return out, nil
}

// reverseExcl takes a marched polyline from p0 to pEnd (including p0,
// excluding pEnd) and returns the polyline from pEnd to p0 including pEnd
// and excluding p0.
func reverseExcl(march []geom.Point, pEnd geom.Point) []geom.Point {
	out := make([]geom.Point, 0, len(march))
	out = append(out, pEnd)
	for i := len(march) - 1; i >= 1; i-- {
		out = append(out, march[i])
	}
	return out
}

func polygonArea(pts []geom.Point) float64 {
	var sum float64
	n := len(pts)
	for i := 0; i < n; i++ {
		p, q := pts[i], pts[(i+1)%n]
		sum += p.X*q.Y - q.X*p.Y
	}
	return sum / 2
}

// Area returns the polygon area of the region.
func (r *Region) Area() float64 { return polygonArea(r.Border) }

// Cost estimates the number of triangles the region will contain after
// refinement with the sizing function: the integral of 1/size over the
// region, evaluated by a centroid fan quadrature. The paper uses this
// estimate both to pick which subdomain to decouple next and as the load
// balancing work unit.
func (r *Region) Cost(size sizing.Func) float64 {
	n := len(r.Border)
	if n < 3 {
		return 0
	}
	var cx, cy float64
	for _, p := range r.Border {
		cx += p.X
		cy += p.Y
	}
	c := geom.Pt(cx/float64(n), cy/float64(n))
	var cost float64
	for i := 0; i < n; i++ {
		a, b := r.Border[i], r.Border[(i+1)%n]
		area := math.Abs(geom.TriangleArea(c, a, b))
		mid := geom.Pt((c.X+a.X+b.X)/3, (c.Y+a.Y+b.Y)/3)
		s := size(mid)
		if s > 0 {
			cost += area / s
		}
	}
	return cost
}

// Side returns the border indices of side s: from Corners[s] to
// Corners[(s+1)%4] cyclically (inclusive endpoints).
func (r *Region) side(s int) []int {
	start := r.Corners[s]
	end := r.Corners[(s+1)%4]
	n := len(r.Border)
	var idx []int
	for i := start; ; i = (i + 1) % n {
		idx = append(idx, i)
		if i == end {
			break
		}
	}
	return idx
}

// SplitPlus performs the '+'-shaped decoupling of the paper: a new center
// point plus four marched paths from the center to the existing border
// point nearest the midpoint of each side. New points appear only in the
// interior, so neighboring regions are untouched. It returns nil when a
// side has no interior point to attach to (the region is too small to
// split).
func (r *Region) SplitPlus(size sizing.Func) []*Region {
	var midIdx [4]int
	var mids [4]geom.Point
	for s := 0; s < 4; s++ {
		side := r.side(s)
		if len(side) < 3 {
			return nil // no interior border point on this side
		}
		a := r.Border[side[0]]
		b := r.Border[side[len(side)-1]]
		target := a.Mid(b)
		best := -1
		bestD := math.Inf(1)
		for _, bi := range side[1 : len(side)-1] {
			if d := r.Border[bi].Dist(target); d < bestD {
				bestD = d
				best = bi
			}
		}
		midIdx[s] = best
		mids[s] = r.Border[best]
	}
	center := geom.Pt(
		(mids[0].X+mids[1].X+mids[2].X+mids[3].X)/4,
		(mids[0].Y+mids[1].Y+mids[2].Y+mids[3].Y)/4,
	)
	// March each arm from the side midpoint toward the center; the arm
	// includes the midpoint (owned by the border) so drop it, and excludes
	// the center.
	var arms [4][]geom.Point // interior points only, ordered mid -> center
	for s := 0; s < 4; s++ {
		m := MarchBorder(mids[s], center, size)
		arms[s] = m[1:]
	}
	// Child c sits between arm c-1 and arm c and contains corner c+1:
	// border = center -> arm[c-1]... no: build from the border walk
	// mid[c] .. corner[c+1] .. mid[c+1], then back through the cross:
	// mid[c+1] -> center (arm c+1 reversed is wrong side) ...
	children := make([]*Region, 0, 4)
	n := len(r.Border)
	for c := 0; c < 4; c++ {
		cn := (c + 1) % 4
		var b []geom.Point
		var corners [4]int
		// Border walk from midIdx[c] to midIdx[cn] (CCW along the parent
		// border, passing Corners[cn]).
		corners[0] = len(b)
		cornerSeen := 0
		for i := midIdx[c]; ; i = (i + 1) % n {
			b = append(b, r.Border[i])
			if i == r.Corners[cn] {
				cornerSeen = len(b) - 1
			}
			if i == midIdx[cn] {
				break
			}
		}
		corners[1] = cornerSeen
		corners[2] = len(b) - 1
		// Cross path: from mids[cn] toward center via arm[cn], then center,
		// then arm[c] reversed back toward mids[c] (exclusive).
		b = append(b, arms[cn]...)
		corners[3] = len(b)
		b = append(b, center)
		for i := len(arms[c]) - 1; i >= 0; i-- {
			b = append(b, arms[c][i])
		}
		child := &Region{Border: b, Corners: corners, Depth: r.Depth + 1}
		if polygonArea(b) <= 0 {
			return nil
		}
		children = append(children, child)
	}
	return children
}

// Decouple repeatedly '+'-splits the highest-cost region until at least
// want regions exist or no region can split further. Region costs are
// evaluated once per region and cached — the sizing function's distance
// queries dominate decoupling time otherwise.
func Decouple(initial []*Region, size sizing.Func, want int) []*Region {
	regions := append([]*Region{}, initial...)
	costs := make([]float64, len(regions))
	for i, r := range regions {
		costs[i] = r.Cost(size)
	}
	replace := func(i int, children []*Region) {
		regions = append(regions[:i], regions[i+1:]...)
		costs = append(costs[:i], costs[i+1:]...)
		for _, ch := range children {
			regions = append(regions, ch)
			costs = append(costs, ch.Cost(size))
		}
	}
	for len(regions) < want {
		// Pick the most expensive region.
		best := -1
		bestCost := -1.0
		for i := range regions {
			if costs[i] > bestCost {
				bestCost = costs[i]
				best = i
			}
		}
		if best < 0 {
			break
		}
		children := regions[best].SplitPlus(size)
		if children == nil {
			// Try the other regions; if none splits, stop.
			split := false
			for i := range regions {
				if ch := regions[i].SplitPlus(size); ch != nil {
					replace(i, ch)
					split = true
					break
				}
			}
			if !split {
				break
			}
			continue
		}
		replace(best, children)
	}
	return regions
}

// Refine triangulates and refines the region independently: its border
// points become the PSLG (consecutive points joined by constrained
// segments) and the sizing function bounds the triangle areas, with
// Ruppert's sqrt(2) circumradius-to-shortest-edge quality bound.
func (r *Region) Refine(size sizing.Func, frame geom.BBox) (*delaunay.Result, error) {
	n := len(r.Border)
	segs := make([][2]int32, n)
	for i := 0; i < n; i++ {
		segs[i] = [2]int32{int32(i), int32((i + 1) % n)}
	}
	return delaunay.TriangulateRefined(
		delaunay.Input{Points: r.Border, Segments: segs, Frame: frame},
		delaunay.Quality{
			MaxRadiusEdgeRatio: math.Sqrt2,
			SizeAt:             size,
			NoSplitSegments:    true,
		},
	)
}
