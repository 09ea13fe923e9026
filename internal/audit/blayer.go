package audit

// Boundary-layer checks, verifying what the extrusion and intersection
// resolution in internal/blayer claim: rays come out in surface loop
// order, every ray's point chain marches monotonically outward within its
// trimmed length, and after ADT/Cohen–Sutherland resolution no two
// extrusion chains cross each other or any body surface. Chain-crossing
// freedom is also the anisotropic no-inversion property: an inverted
// extrusion quad requires its two bounding ray chains to cross.

import (
	"math"

	"pamg2d/internal/adt"
	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
)

// blayerCheck audits the generation-time boundary layers carried by the
// snapshot. It needs the layers with their inserted points, so it only
// applies to pipeline-integrated audits, not bare mesh files.
type blayerCheck struct{}

func (blayerCheck) Name() string { return "boundary-layer" }

func (blayerCheck) Applicable(s *Snapshot) bool { return len(s.Layers) > 0 }

func (blayerCheck) Local() bool { return false }

func (blayerCheck) Run(s *Snapshot, _, _ int, rep *Reporter) {
	for li, l := range s.Layers {
		checkRayOrder(li, l, rep)
		checkMonotone(li, l, rep)
	}
	checkChainCrossings(s, rep)
}

// checkRayOrder verifies rays reference surface vertices in loop order:
// SurfaceIdx values in range and non-decreasing (several fan rays may
// share one vertex), each ray anchored at its surface vertex.
func checkRayOrder(li int, l *blayer.Layer, rep *Reporter) {
	n := len(l.Surface.Points)
	prev := -1
	for ri, r := range l.Rays {
		if r.SurfaceIdx < 0 || r.SurfaceIdx >= n {
			rep.Reportf(-1, "layer %d ray %d references surface vertex %d of %d", li, ri, r.SurfaceIdx, n)
			continue
		}
		if r.SurfaceIdx < prev {
			rep.Reportf(-1, "layer %d ray %d out of order: surface vertex %d after %d", li, ri, r.SurfaceIdx, prev)
		}
		prev = r.SurfaceIdx
		if r.Origin != l.Surface.Points[r.SurfaceIdx] {
			rep.Reportf(-1, "layer %d ray %d origin %v is not its surface vertex %v",
				li, ri, r.Origin, l.Surface.Points[r.SurfaceIdx])
		}
	}
}

// checkMonotone verifies normal-extrusion monotonicity of every ray chain:
// each step advances strictly along the ray's extrusion axis (the ray
// direction; the fan bisector for curved fan rays, which blend toward it
// with height), and no point escapes the trimmed length MaxLen.
func checkMonotone(li int, l *blayer.Layer, rep *Reporter) {
	for ri, pts := range l.Points {
		if ri >= len(l.Rays) {
			rep.Reportf(-1, "layer %d has %d point chains for %d rays", li, len(l.Points), len(l.Rays))
			break
		}
		r := l.Rays[ri]
		axis := r.Dir
		if r.Fan && r.FanBisector != (geom.Vec{}) {
			axis = r.FanBisector
		}
		// Rounding accumulates ulp-scale error per inserted layer; the bound
		// only has to catch real escapes past the trim point.
		maxLen := r.MaxLen
		if !math.IsInf(maxLen, 1) {
			maxLen *= 1 + 1e-9
		}
		prev := r.Origin
		for k, p := range pts {
			step := p.Sub(prev)
			if step.Dot(axis) <= 0 {
				rep.Reportf(-1, "layer %d ray %d point %d steps backward along the extrusion axis", li, ri, k)
			}
			if d := p.Dist(r.Origin); d > maxLen {
				rep.Reportf(-1, "layer %d ray %d point %d at distance %g exceeds trimmed length %g", li, ri, k, d, r.MaxLen)
			}
			prev = p
		}
	}
}

// checkChainCrossings verifies intersection resolution: no extrusion chain
// segment crosses (or collinearly overlaps) another chain segment or a
// body surface segment, within a layer or across layers. Touching at a
// shared endpoint is legal — consecutive chain segments share a point, fan
// rays share their origin, and ray origins sit on the surface loops. An
// alternating digital tree over segment boxes prunes the pair tests, the
// exact segment predicate classifies the survivors.
func checkChainCrossings(s *Snapshot, rep *Reporter) {
	var segs []geom.Segment
	box := geom.EmptyBBox()
	add := func(a, b geom.Point) {
		if a == b {
			return
		}
		segs = append(segs, geom.Segment{A: a, B: b})
		box = box.Extend(a).Extend(b)
	}
	for _, l := range s.Layers {
		pts := l.Surface.Points
		for i := range pts {
			add(pts[i], pts[(i+1)%len(pts)])
		}
		for ri, chain := range l.Points {
			if ri >= len(l.Rays) {
				break
			}
			prev := l.Rays[ri].Origin
			for _, p := range chain {
				add(prev, p)
				prev = p
			}
		}
	}
	if len(segs) < 2 {
		return
	}
	boxes := make([]geom.BBox, len(segs))
	for i, sg := range segs {
		boxes[i] = sg.BBox()
	}
	tree := adt.Build(box, boxes)
	for i, sg := range segs {
		tree.VisitOverlapping(boxes[i], func(j int) bool {
			if j <= i {
				return true // each pair once
			}
			other := segs[j]
			switch geom.SegmentsIntersect(sg, other) {
			case geom.SegCross:
				rep.Reportf(-1, "extrusion chain segments cross: %v-%v and %v-%v",
					sg.A, sg.B, other.A, other.B)
			case geom.SegOverlap:
				rep.Reportf(-1, "extrusion chain segments collinearly overlap: %v-%v and %v-%v",
					sg.A, sg.B, other.A, other.B)
			case geom.SegTouch:
				if !shareEndpoint(sg, other) {
					rep.Reportf(-1, "extrusion chain segment touches another segment's interior: %v-%v and %v-%v",
						sg.A, sg.B, other.A, other.B)
				}
			}
			return true
		})
	}
}

func shareEndpoint(s, t geom.Segment) bool {
	return s.A == t.A || s.A == t.B || s.B == t.A || s.B == t.B
}
