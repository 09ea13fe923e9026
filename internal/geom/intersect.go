package geom

// Segment intersection built on the exact orientation predicate, plus a
// numeric intersection-point solver for the boundary-layer clipping code.

// SegIntersectKind classifies how two segments meet.
type SegIntersectKind int

const (
	// SegDisjoint means the segments share no point.
	SegDisjoint SegIntersectKind = iota
	// SegCross means the segments cross at a single interior point of both.
	SegCross
	// SegTouch means the segments share a single point that is an endpoint
	// of at least one of them.
	SegTouch
	// SegOverlap means the segments are collinear and share more than one
	// point.
	SegOverlap
)

// SegmentsIntersect reports whether segments s and t share any point, and
// classifies the intersection. The classification is exact (it uses the
// robust orientation predicate). Most pairs it is asked about are apart,
// and two orientations settle the usual one: when both ends of s lie
// strictly on one side of t's line, so does every point of s, since the
// orientation against a line is affine along a segment.
func SegmentsIntersect(s, t Segment) SegIntersectKind {
	d1 := Orient2DSign(t.A, t.B, s.A)
	d2 := Orient2DSign(t.A, t.B, s.B)
	if d1*d2 > 0 {
		return SegDisjoint
	}
	d3 := Orient2DSign(s.A, s.B, t.A)
	d4 := Orient2DSign(s.A, s.B, t.B)

	if d1*d2 < 0 && d3*d4 < 0 {
		return SegCross
	}
	if d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0 {
		// Collinear (or degenerate): check 1-D overlap along the dominant
		// axis of the combined extent, shared by both segments.
		bb := s.BBox().Union(t.BBox())
		useX := bb.Width() >= bb.Height()
		lo1, hi1 := orderedRange(s, useX)
		lo2, hi2 := orderedRange(t, useX)
		if hi1 < lo2 || hi2 < lo1 {
			return SegDisjoint
		}
		if hi1 == lo2 || hi2 == lo1 {
			return SegTouch
		}
		return SegOverlap
	}
	onSeg := func(sign int, seg Segment, p Point) bool {
		return sign == 0 && seg.BBox().Contains(p)
	}
	if onSeg(d1, t, s.A) || onSeg(d2, t, s.B) || onSeg(d3, s, t.A) || onSeg(d4, s, t.B) {
		return SegTouch
	}
	return SegDisjoint
}

// orderedRange returns the coordinate range of the segment along the given
// axis, ordered lo <= hi. Used only for collinear overlap tests.
func orderedRange(s Segment, useX bool) (lo, hi float64) {
	var a, b float64
	if useX {
		a, b = s.A.X, s.B.X
	} else {
		a, b = s.A.Y, s.B.Y
	}
	if a <= b {
		return a, b
	}
	return b, a
}

// SegmentIntersection returns the intersection point of segments s and t
// when they intersect in exactly one point, along with the parameter u in
// [0,1] locating the point along s. ok is false for disjoint or collinear
// overlapping segments.
func SegmentIntersection(s, t Segment) (p Point, u float64, ok bool) {
	kind := SegmentsIntersect(s, t)
	if kind == SegDisjoint || kind == SegOverlap {
		return Point{}, 0, false
	}
	r := s.B.Sub(s.A)
	d := t.B.Sub(t.A)
	denom := r.Cross(d)
	if denom == 0 {
		// Touching at an endpoint with collinear direction; pick the shared
		// endpoint.
		switch {
		case s.A == t.A || s.A == t.B:
			return s.A, 0, true
		case s.B == t.A || s.B == t.B:
			return s.B, 1, true
		default:
			// Collinear touch without equal endpoints (an endpoint interior
			// to the other segment). Project t's endpoints onto s.
			for _, q := range []Point{t.A, t.B} {
				w := q.Sub(s.A)
				tt := w.Dot(r) / r.Len2()
				if tt >= 0 && tt <= 1 {
					return q, tt, true
				}
			}
			return Point{}, 0, false
		}
	}
	w := t.A.Sub(s.A)
	u = w.Cross(d) / denom
	if u < 0 {
		u = 0
	} else if u > 1 {
		u = 1
	}
	return s.A.Lerp(s.B, u), u, true
}

// PointSegDist returns the distance from point p to segment s.
func PointSegDist(p Point, s Segment) float64 {
	r := s.B.Sub(s.A)
	l2 := r.Len2()
	if l2 == 0 {
		return p.Dist(s.A)
	}
	t := p.Sub(s.A).Dot(r) / l2
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(s.A.Lerp(s.B, t))
}

// InDiametralCircle reports whether point p lies strictly inside the
// diametral circle of segment s (the circle with s as diameter). This is
// the encroachment test used by Ruppert refinement.
func InDiametralCircle(p Point, s Segment) bool {
	// p is inside the diametral circle iff angle(A, p, B) > 90 degrees,
	// i.e. (A-p) . (B-p) < 0.
	return s.A.Sub(p).Dot(s.B.Sub(p)) < 0
}
