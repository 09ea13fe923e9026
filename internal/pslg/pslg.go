// Package pslg models the planar straight-line graph input of the mesh
// generator: one or more closed polygonal loops (airfoil elements and the
// far-field boundary) with validation. All loops are stored
// counter-clockwise; for a CCW body loop the outward normal (into the
// fluid) of a directed edge is the edge direction rotated -90 degrees.
package pslg

import (
	"fmt"
	"math"

	"pamg2d/internal/adt"
	"pamg2d/internal/geom"
)

// Loop is a closed polygonal chain; the segment i runs from Points[i] to
// Points[(i+1)%len].
type Loop struct {
	Points []geom.Point
	// Name labels the loop in diagnostics ("slat", "main", "farfield").
	Name string
}

// NumSegments returns the number of segments in the loop.
func (l *Loop) NumSegments() int { return len(l.Points) }

// Segment returns the i-th segment of the loop.
func (l *Loop) Segment(i int) geom.Segment {
	n := len(l.Points)
	return geom.Segment{A: l.Points[i%n], B: l.Points[(i+1)%n]}
}

// SignedArea returns the signed area of the loop (positive for
// counter-clockwise orientation).
func (l *Loop) SignedArea() float64 {
	var sum float64
	n := len(l.Points)
	for i := 0; i < n; i++ {
		p, q := l.Points[i], l.Points[(i+1)%n]
		sum += p.X*q.Y - q.X*p.Y
	}
	return sum / 2
}

// IsCCW reports whether the loop is counter-clockwise.
func (l *Loop) IsCCW() bool { return l.SignedArea() > 0 }

// Reverse flips the loop orientation in place.
func (l *Loop) Reverse() {
	for i, j := 0, len(l.Points)-1; i < j; i, j = i+1, j-1 {
		l.Points[i], l.Points[j] = l.Points[j], l.Points[i]
	}
}

// BBox returns the loop's bounding box.
func (l *Loop) BBox() geom.BBox { return geom.BBoxOf(l.Points) }

// Contains reports whether p lies strictly inside the loop, by ray casting
// with exact orientation tests on the crossings.
func (l *Loop) Contains(p geom.Point) bool {
	inside := false
	n := len(l.Points)
	for i := 0; i < n; i++ {
		a := l.Points[i]
		b := l.Points[(i+1)%n]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			// The horizontal ray to +x crosses segment (a,b) iff p is on
			// the side of (a,b) facing the crossing direction.
			s := geom.Orient2DSign(a, b, p)
			if b.Y > a.Y && s > 0 {
				inside = !inside
			} else if b.Y < a.Y && s < 0 {
				inside = !inside
			}
		}
	}
	return inside
}

// Graph is a complete PSLG: surface loops (bodies) plus an optional
// far-field loop enclosing them.
type Graph struct {
	Surfaces []Loop
	Farfield Loop
}

// NonFiniteError reports a point with a NaN or infinite coordinate. No
// stage downstream is defined on one, so ReadPoly and Validate refuse it
// at the edge.
type NonFiniteError struct {
	Where string // `vertex 7` (the .poly number) or `loop "farfield" point 2`
	P     geom.Point
}

func (e *NonFiniteError) Error() string {
	return fmt.Sprintf("pslg: %s has a non-finite coordinate (%v, %v)", e.Where, e.P.X, e.P.Y)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// Validate checks structural soundness: every coordinate is finite, every
// loop has at least three points, no zero-length segments, no loop
// self-intersects, no two loops intersect, and all surfaces lie inside the
// far-field loop (when one is present). Intersection checks use an
// alternating digital tree over segment extent boxes so validation costs
// O(n log n).
func (g *Graph) Validate() error {
	all := make([]Loop, 0, len(g.Surfaces)+1)
	all = append(all, g.Surfaces...)
	hasFar := len(g.Farfield.Points) > 0
	if hasFar {
		all = append(all, g.Farfield)
	}
	// First of all: the checks below compare and subtract coordinates.
	for li := range all {
		for i, p := range all[li].Points {
			if !finite(p.X) || !finite(p.Y) {
				return &NonFiniteError{Where: fmt.Sprintf("loop %q point %d", all[li].Name, i), P: p}
			}
		}
	}
	type segInfo struct {
		s    geom.Segment
		loop int
		idx  int
	}
	var segs []segInfo
	world := geom.EmptyBBox()
	for li := range all {
		l := &all[li]
		if len(l.Points) < 3 {
			return fmt.Errorf("pslg: loop %q has %d points, need >= 3", l.Name, len(l.Points))
		}
		for i := 0; i < len(l.Points); i++ {
			s := l.Segment(i)
			if s.A == s.B {
				return fmt.Errorf("pslg: loop %q segment %d has zero length", l.Name, i)
			}
			segs = append(segs, segInfo{s, li, i})
			world = world.Union(s.BBox())
		}
	}
	boxes := make([]geom.BBox, len(segs))
	for i, si := range segs {
		boxes[i] = si.s.BBox()
	}
	tree := adt.Build(world, boxes)
	for i, si := range segs {
		bad := false
		var with segInfo
		tree.VisitOverlapping(boxes[i], func(j int) bool {
			if j <= i {
				return true
			}
			sj := segs[j]
			kind := geom.SegmentsIntersect(si.s, sj.s)
			switch kind {
			case geom.SegDisjoint:
				return true
			case geom.SegTouch:
				// Adjacent segments of the same loop may share an endpoint.
				if si.loop == sj.loop {
					n := len(all[si.loop].Points)
					d := (sj.idx - si.idx + n) % n
					if d == 1 || d == n-1 {
						return true
					}
				}
			}
			bad = true
			with = sj
			return false
		})
		if bad {
			return fmt.Errorf("pslg: loop %q segment %d intersects loop %q segment %d",
				all[si.loop].Name, si.idx, all[with.loop].Name, with.idx)
		}
	}
	if hasFar {
		for i := range g.Surfaces {
			for _, p := range g.Surfaces[i].Points {
				if !g.Farfield.Contains(p) {
					return fmt.Errorf("pslg: surface %q not inside the far-field loop", g.Surfaces[i].Name)
				}
			}
		}
	}
	return nil
}

// NumPoints returns the total number of points across all loops.
func (g *Graph) NumPoints() int {
	n := len(g.Farfield.Points)
	for i := range g.Surfaces {
		n += len(g.Surfaces[i].Points)
	}
	return n
}

// InteriorPointOf returns a point strictly inside the given loop, used as
// a hole seed for the Delaunay kernel. It probes inward from the midpoint
// of the first segment.
func InteriorPointOf(l *Loop) geom.Point {
	n := len(l.Points)
	best := geom.Point{}
	found := false
	scale := l.BBox().Width() + l.BBox().Height()
	for i := 0; i < n && !found; i++ {
		s := l.Segment(i)
		mid := s.Mid()
		normal := s.B.Sub(s.A).Perp().Unit()
		for _, dir := range []float64{1, -1} {
			for _, eps := range []float64{1e-6, 1e-4, 1e-3, 1e-2} {
				cand := mid.Add(normal.Scale(dir * eps * scale))
				if l.Contains(cand) {
					best = cand
					found = true
					break
				}
			}
			if found {
				break
			}
		}
	}
	return best
}
