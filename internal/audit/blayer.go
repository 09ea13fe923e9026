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
// applies to pipeline-integrated audits, not bare mesh files; it reads
// nothing else, so the pipeline starts it as soon as the layers are final.
// Begin checks every ray and builds the segment tree, the parts test
// ranges of segments against it.
type blayerCheck struct{}

func (blayerCheck) Name() string { return "boundary-layer" }

func (blayerCheck) Applicable(s *Snapshot) bool { return len(s.Layers) > 0 }

func (blayerCheck) LayersOnly() {}

func (blayerCheck) Begin(s *Snapshot, rep *Reporter) Parts {
	for li, l := range s.Layers {
		checkRayOrder(li, l, rep)
		checkMonotone(li, l, rep)
	}
	return newChainCrossings(s.Layers)
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

// chainCrossings verifies intersection resolution: no extrusion chain
// segment crosses (or collinearly overlaps) another chain segment or a
// body surface segment, within a layer or across layers. Touching at a
// shared endpoint is legal — consecutive chain segments share a point, fan
// rays share their origin, and ray origins sit on the surface loops. An
// alternating digital tree over segment boxes prunes the pair tests, the
// exact segment predicate classifies the survivors; each segment is tested
// against the higher-numbered ones, so the segments split into parts.
type chainCrossings struct {
	segs  []geom.Segment
	boxes []geom.BBox
	tree  *adt.Tree
}

func newChainCrossings(layers []*blayer.Layer) *chainCrossings {
	n := 0
	for _, l := range layers {
		n += len(l.Surface.Points)
		for _, chain := range l.Points[:min(len(l.Points), len(l.Rays))] {
			n += len(chain)
		}
	}
	c := &chainCrossings{segs: make([]geom.Segment, 0, n)}
	box := geom.EmptyBBox()
	add := func(a, b geom.Point) {
		if a == b {
			return
		}
		c.segs = append(c.segs, geom.Segment{A: a, B: b})
		box = box.Extend(a).Extend(b)
	}
	for _, l := range layers {
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
	if len(c.segs) < 2 {
		c.segs = nil
		return c
	}
	c.boxes = make([]geom.BBox, len(c.segs))
	for i, sg := range c.segs {
		c.boxes[i] = sg.BBox()
	}
	c.tree = adt.Build(box, c.boxes)
	return c
}

func (c *chainCrossings) Size() int { return len(c.segs) }

func (c *chainCrossings) Part(from, to int, rep *Reporter) {
	for i := from; i < to; i++ {
		sg := c.segs[i]
		c.tree.VisitOverlapping(c.boxes[i], func(j int) bool {
			if j <= i {
				return true // each pair once
			}
			other := c.segs[j]
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

func (*chainCrossings) Tail(*Reporter) {}

func shareEndpoint(s, t geom.Segment) bool {
	return s.A == t.A || s.A == t.B || s.B == t.A || s.B == t.B
}
