// Package clip implements the Cohen–Sutherland outcode algorithm for
// clipping line segments against axis-aligned bounding boxes. The paper
// uses a modified Cohen–Sutherland pass as the first, cheapest stage of the
// hierarchical multi-element intersection check: candidate rays are pruned
// by whether they intersect the AABB of another element's boundary layer.
package clip

import "pamg2d/internal/geom"

// Outcode bits for the nine Cohen–Sutherland regions around a box.
const (
	Inside = 0
	Left   = 1 << iota
	Right
	Bottom
	Top
)

// Outcode returns the Cohen–Sutherland region code of p relative to box b.
func Outcode(p geom.Point, b geom.BBox) int {
	code := Inside
	if p.X < b.Min.X {
		code |= Left
	} else if p.X > b.Max.X {
		code |= Right
	}
	if p.Y < b.Min.Y {
		code |= Bottom
	} else if p.Y > b.Max.Y {
		code |= Top
	}
	return code
}

// SegmentIntersectsBox reports whether segment s intersects box b
// (boundaries count), using iterative Cohen–Sutherland clipping. It never
// reports false for a truly intersecting segment: the box is inflated by a
// small relative tolerance first, which absorbs the rounding error of exact
// corner grazes. A barely-missing segment may be reported as intersecting,
// which is harmless for the filter's pruning role.
func SegmentIntersectsBox(s geom.Segment, b geom.BBox) bool {
	scale := b.Width() + b.Height() + abs(b.Min.X) + abs(b.Min.Y) + 1
	_, _, ok := ClipSegment(s, b.Inflate(1e-12*scale))
	return ok
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// ClipSegment clips segment s against box b and returns the clipped
// endpoints. ok is false when the segment lies entirely outside the box.
func ClipSegment(s geom.Segment, b geom.BBox) (p0, p1 geom.Point, ok bool) {
	p0, p1 = s.A, s.B
	out0 := Outcode(p0, b)
	out1 := Outcode(p1, b)
	// In exact arithmetic Cohen–Sutherland terminates after at most four
	// clips; with floating point a segment grazing a corner can oscillate
	// between two outside regions. Cap the iterations and accept
	// conservatively on exhaustion — by then both endpoints are within
	// rounding distance of the box.
	for iter := 0; ; iter++ {
		if iter > 16 {
			return p0, p1, true
		}
		if out0|out1 == 0 {
			// Both endpoints inside: trivially accepted.
			return p0, p1, true
		}
		if out0&out1 != 0 {
			// Both endpoints share an outside region: trivially rejected.
			return p0, p1, false
		}
		// Pick an endpoint outside the box and move it to the box border.
		out := out0
		if out == 0 {
			out = out1
		}
		var p geom.Point
		dx := p1.X - p0.X
		dy := p1.Y - p0.Y
		switch {
		case out&Top != 0:
			p = geom.Pt(p0.X+dx*(b.Max.Y-p0.Y)/dy, b.Max.Y)
		case out&Bottom != 0:
			p = geom.Pt(p0.X+dx*(b.Min.Y-p0.Y)/dy, b.Min.Y)
		case out&Right != 0:
			p = geom.Pt(b.Max.X, p0.Y+dy*(b.Max.X-p0.X)/dx)
		default: // Left
			p = geom.Pt(b.Min.X, p0.Y+dy*(b.Min.X-p0.X)/dx)
		}
		if out == out0 {
			p0 = p
			out0 = Outcode(p0, b)
		} else {
			p1 = p
			out1 = Outcode(p1, b)
		}
	}
}
