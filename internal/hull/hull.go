// Package hull implements Andrew's Monotone Chain convex hull algorithm
// (Andrew 1979), the worst-case linear-time hull construction on
// pre-sorted points used by the projection-based Delaunay decomposition
// (paper Figure 7): the lower convex hull of the flattened paraboloid
// projection yields the Delaunay dividing path.
package hull

import (
	"slices"

	"pamg2d/internal/geom"
)

// LowerSorted returns the indices of the points on the lower convex hull of
// pts, which must already be sorted lexicographically by (X, Y). The hull is
// returned left to right and includes both extreme points. Collinear points
// on the hull are removed (strict right turns only are kept out).
//
// This is the inner loop of the dividing-path construction: the vertices
// arrive already sorted along the cut axis, so the hull costs O(n).
func LowerSorted(pts []geom.Point) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	h := make([]int, 0, n)
	for i := 0; i < n; i++ {
		// Pop while the last two hull points and pts[i] do not make a
		// strict left turn (counter-clockwise): the middle point is not on
		// the lower hull.
		for len(h) >= 2 && geom.Orient2DSign(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) <= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	return h
}

// UpperSorted returns the indices of the points on the upper convex hull of
// pts, which must already be sorted lexicographically by (X, Y). The hull is
// returned left to right and includes both extreme points.
func UpperSorted(pts []geom.Point) []int {
	n := len(pts)
	if n == 0 {
		return nil
	}
	h := make([]int, 0, n)
	for i := 0; i < n; i++ {
		for len(h) >= 2 && geom.Orient2DSign(pts[h[len(h)-2]], pts[h[len(h)-1]], pts[i]) >= 0 {
			h = h[:len(h)-1]
		}
		h = append(h, i)
	}
	return h
}

// Convex returns the full convex hull of arbitrary (unsorted) points in
// counter-clockwise order without repetition of the first point. Duplicate
// points are tolerated. For fewer than three distinct points the distinct
// points are returned in sorted order.
func Convex(pts []geom.Point) []geom.Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]geom.Point, len(pts))
	copy(sorted, pts)
	slices.SortFunc(sorted, geom.Compare)
	// Deduplicate.
	uniq := sorted[:1]
	for _, p := range sorted[1:] {
		if p != uniq[len(uniq)-1] {
			uniq = append(uniq, p)
		}
	}
	if len(uniq) <= 2 {
		return uniq
	}
	lower := LowerSorted(uniq)
	upper := UpperSorted(uniq)
	out := make([]geom.Point, 0, len(lower)+len(upper)-2)
	for _, i := range lower {
		out = append(out, uniq[i])
	}
	// Upper hull runs left to right; append it reversed, skipping the two
	// shared extreme points.
	for i := len(upper) - 2; i >= 1; i-- {
		out = append(out, uniq[upper[i]])
	}
	return out
}
