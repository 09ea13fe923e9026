package blayer

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pamg2d/internal/adt"
	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/pslg"
)

// refResolveSelf is resolveSelf as it was before the convexity
// certificate: every candidate the tree returns gets its exact test. It is
// the reference the certified version must match bit for bit.
func refResolveSelf(l *Layer, p Params) {
	nr := len(l.Rays)
	full := fullLength(p)
	surf := l.Surface.Points
	ns := len(surf)
	// Box i < nr is ray i's at full length, box nr+k surface segment k's.
	boxes := make([]geom.BBox, nr+ns)
	world := geom.EmptyBBox()
	for i := range l.Rays {
		boxes[i] = raySegment(&l.Rays[i], full).BBox()
		world = world.Union(boxes[i])
	}
	for k := 0; k < ns; k++ {
		boxes[nr+k] = geom.Segment{A: surf[k], B: surf[(k+1)%ns]}.BBox()
	}
	tree := adt.Build(world, boxes)
	for i := range l.Rays {
		ri := &l.Rays[i]
		tree.VisitOverlapping(boxes[i], func(j int) bool {
			if j >= nr {
				// Surface segment: skip the two segments adjacent to the
				// ray's origin vertex.
				k := j - nr
				if k == ri.SurfaceIdx || (k+1)%ns == ri.SurfaceIdx {
					return true
				}
				s := geom.Segment{A: surf[k], B: surf[(k+1)%ns]}
				si := raySegment(ri, full)
				q, _, ok := geom.SegmentIntersection(si, s)
				if !ok {
					return true
				}
				d := q.Dist(ri.Origin)
				if d < 1e-12*si.Len() {
					return true // grazing its own origin
				}
				if d/2 < ri.MaxLen {
					ri.MaxLen = d / 2
					l.Stats.SelfIntersections++
				}
				return true
			}
			if j <= i {
				return true
			}
			rj := &l.Rays[j]
			// Neighboring rays sharing the origin (fans) never intersect
			// away from the wall.
			if ri.Origin == rj.Origin {
				return true
			}
			si := raySegment(ri, full)
			sj := raySegment(rj, full)
			q, u, ok := geom.SegmentIntersection(si, sj)
			if !ok || geom.SegmentsIntersect(si, sj) == geom.SegTouch {
				return true
			}
			l.Stats.SelfIntersections++
			trim(ri, u*si.Len(), p)
			trim(rj, q.Dist(rj.Origin), p)
			return true
		})
	}
}

// checkResolveSelf refines loop and builds its rays, turns each ray off
// its normal by up to tiltDeg degrees either way (so that rays also leave
// their vertices' normal cones), then resolves one copy with resolveSelf
// and one with refResolveSelf and compares them bit for bit.
func checkResolveSelf(t *testing.T, name string, loop []geom.Point, p Params, tiltDeg float64, rng *rand.Rand) {
	t.Helper()
	var st Stats
	refined := refineSurface(loop, p, &st)
	rays := buildRays(refined, p, &st)
	if tiltDeg > 0 {
		for i := range rays {
			rays[i].Dir = rays[i].Dir.Rotate((2*rng.Float64() - 1) * tiltDeg * math.Pi / 180)
		}
	}
	run := func(resolve func(*Layer, Params)) *Layer {
		l := &Layer{Surface: pslg.Loop{Points: refined}, Rays: slices.Clone(rays), Stats: st}
		resolve(l, p)
		return l
	}
	got, want := run(resolveSelf), run(refResolveSelf)
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, reference %+v", name, got.Stats, want.Stats)
	}
	for i := range want.Rays {
		if rayBits(got.Rays[i]) != rayBits(want.Rays[i]) {
			t.Fatalf("%s: ray %d of %d: MaxLen %v, reference %v", name, i, len(want.Rays), got.Rays[i].MaxLen, want.Rays[i].MaxLen)
		}
	}
}

// Shapes of FuzzResolveSelfMatchesReference's loops.
const (
	shapeNACA    = iota // NACA 0012 (even seed) or 4412 (odd), n points a side
	shapeThree          // every element of ThreeElement(n)
	shapeHull           // convex hull of random points
	shapeNotched        // random star-shaped loop: concave vertices throughout
	shapeCusps          // star with sharp tips: convex cusps with fans
	shapeLerp           // random polygon with Lerp-refined straight edges
	shapeSpiral         // spiral band: its outer wall is one convex run turning more than once
	shapeStar           // star polygon {k/q}: every turn a left turn, winding q times
	numShapes
)

// fuzzLoops returns the surface loops of one fuzz input.
func fuzzLoops(t *testing.T, shape uint8, seed int64, n int) [][]geom.Point {
	rng := rand.New(rand.NewSource(seed))
	star := func(k int, radius func(i int) float64) []geom.Point {
		pts := make([]geom.Point, k)
		for i := range pts {
			th := 2 * math.Pi * (float64(i) + 0.4*rng.Float64()) / float64(k)
			r := radius(i)
			pts[i] = geom.Pt(r*math.Cos(th), r*math.Sin(th))
		}
		return pts
	}
	switch shape % numShapes {
	case shapeNACA:
		sec := airfoil.NACA0012
		if seed%2 != 0 {
			sec = airfoil.NACA4{MaxCamber: 0.04, CamberPos: 0.4, Thickness: 0.12, ClosedTE: true}
		}
		return [][]geom.Point{sec.Points(max(8, n%1024))}
	case shapeThree:
		g, err := airfoil.ThreeElement(max(8, n%128)).Graph()
		if err != nil {
			t.Skip()
		}
		var out [][]geom.Point
		for _, s := range g.Surfaces {
			out = append(out, s.Points)
		}
		return out
	case shapeHull:
		cand := make([]geom.Point, 3+n%200)
		for i := range cand {
			cand[i] = geom.Pt(rng.NormFloat64(), rng.NormFloat64()*(0.1+rng.Float64()))
		}
		return [][]geom.Point{convexHull(cand)}
	case shapeNotched:
		return [][]geom.Point{star(6+n%120, func(int) float64 { return 0.5 + rng.Float64() })}
	case shapeCusps:
		return [][]geom.Point{star(2*(3+n%12), func(i int) float64 {
			if i%2 == 0 {
				return 2 + rng.Float64()
			}
			return 0.6 + 0.2*rng.Float64()
		})}
	case shapeSpiral:
		// The outer wall r(θ) runs over 1 to 3 turns in steps under
		// surface refinement's 20 degrees, outward (r = 1 + bθ) or inward
		// (r = 1 + b(θmax-θ)); the inner wall r(θ) - w comes back. The
		// band's width w stays below its pitch 2πb.
		turns := 1 + rng.Float64()*2
		k := int(turns*24) + 2 + n%64
		b := 0.05 + 0.1*rng.Float64()
		w := 2 * math.Pi * b * (0.3 + 0.5*rng.Float64())
		thMax := 2 * math.Pi * turns
		r := func(th float64) float64 { return 1 + b*th }
		if seed%2 != 0 {
			r = func(th float64) float64 { return 1 + b*(thMax-th) }
		}
		pts := make([]geom.Point, 2*k)
		for i := range k {
			th := thMax * float64(i) / float64(k-1)
			pts[i] = geom.Pt(r(th)*math.Cos(th), r(th)*math.Sin(th))
			pts[2*k-1-i] = geom.Pt((r(th)-w)*math.Cos(th), (r(th)-w)*math.Sin(th))
		}
		return [][]geom.Point{pts}
	case shapeStar:
		k := 5 + n%40
		q := 1 + int(uint64(seed)%uint64(k/2))
		for gcd(k, q) != 1 {
			q--
		}
		pts := make([]geom.Point, k)
		for i := range pts {
			th := 2 * math.Pi * float64(i*q%k) / float64(k)
			pts[i] = geom.Pt(math.Cos(th), math.Sin(th))
		}
		return [][]geom.Point{pts}
	default:
		corners := star(3+n%9, func(int) float64 { return 0.3 + rng.Float64() })
		var pts []geom.Point
		k := 1 + n%7
		for i, a := range corners {
			b := corners[(i+1)%len(corners)]
			for j := range k {
				pts = append(pts, a.Lerp(b, float64(j)/float64(k)))
			}
		}
		return [][]geom.Point{pts}
	}
}

// FuzzResolveSelfMatchesReference: skipping the pairs the convexity
// certificate proves empty moves no bit of any ray's MaxLen and no count of
// the layer's Stats, on airfoils, convex hulls, notched loops, cusps with
// fans, Lerp-refined straight edges, spirals and star polygons that wind
// more than once, with layers from far shorter than the surface spacing
// (few trims) to far taller (many), and with rays along their normals or
// turned off them.
func FuzzResolveSelfMatchesReference(f *testing.F) {
	f.Add(uint8(shapeNACA), int64(0), uint16(768), uint8(0), uint8(40), uint8(0)) // the 1,536-point NACA 0012 at DefaultParams
	for _, n := range []uint16{16, 32, 64} {
		f.Add(uint8(shapeThree), int64(0), n, uint8(0), uint8(40), uint8(0))
	}
	f.Add(uint8(shapeNACA), int64(1), uint16(120), uint8(3), uint8(30), uint8(0))
	f.Add(uint8(shapeHull), int64(2), uint16(60), uint8(5), uint8(12), uint8(0))
	f.Add(uint8(shapeHull), int64(2), uint16(60), uint8(9), uint8(12), uint8(20))
	f.Add(uint8(shapeNotched), int64(3), uint16(40), uint8(6), uint8(20), uint8(0))
	f.Add(uint8(shapeCusps), int64(4), uint16(5), uint8(4), uint8(16), uint8(0))
	f.Add(uint8(shapeCusps), int64(4), uint16(5), uint8(12), uint8(16), uint8(45))
	f.Add(uint8(shapeLerp), int64(5), uint16(17), uint8(7), uint8(10), uint8(0))
	f.Add(uint8(shapeSpiral), int64(6), uint16(40), uint8(13), uint8(20), uint8(0))
	f.Add(uint8(shapeStar), int64(2), uint16(0), uint8(12), uint8(20), uint8(0))
	f.Fuzz(func(t *testing.T, shape uint8, seed int64, n uint16, h0, layers, tilt uint8) {
		p := DefaultParams()
		if h0 > 0 {
			// H0 from 1e-5 up to about 0.3: layers from a sliver to
			// taller than the body.
			p.Growth = growth.Geometric{H0: 1e-5 * math.Pow(2, float64(h0%16)), Ratio: 1.1 + 0.02*float64(h0%8)}
		}
		p.MaxLayers = 1 + int(layers)%64
		rng := rand.New(rand.NewSource(seed + 1))
		for s, loop := range fuzzLoops(t, shape, seed, int(n)) {
			if len(loop) < 3 {
				continue
			}
			checkResolveSelf(t, fmt.Sprintf("shape %d loop %d", shape%numShapes, s), loop, p, float64(tilt%91), rng)
		}
	})
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// TestConvexRunsRejectsMultipleWinding: a closed polygon of strict left
// turns is convex only when it winds once. The pentagram {5/2} turns left
// at every vertex and winds twice, so as a whole loop it gets no run while
// the pentagon gets one; and as the chain of a run inside a longer loop
// (its two ends made concave there), every turn of the closed chain is
// still a left turn and only the winding rejects it.
func TestConvexRunsRejectsMultipleWinding(t *testing.T) {
	polygon := func(q int) []geom.Point {
		pts := make([]geom.Point, 5)
		for i := range pts {
			th := 2 * math.Pi * float64(i*q%5) / 5
			pts[i] = geom.Pt(math.Cos(th), math.Sin(th))
		}
		return pts
	}
	for _, c := range []struct {
		q     int
		whole bool
		runs  int
	}{{1, true, 1}, {2, false, 0}} {
		pts := polygon(c.q)
		for v := range pts {
			if !Convex(pts, v) {
				t.Fatalf("{5/%d}: vertex %d is not a left turn", c.q, v)
			}
		}
		if cv := newConvexRuns(pts); cv.whole != c.whole || len(cv.chains) != c.runs {
			t.Errorf("{5/%d}: whole %v with %d runs, want %v with %d", c.q, cv.whole, len(cv.chains), c.whole, c.runs)
		}
	}
	// Chain s=P0, run P1..P3, e=P4; x1 and x2 turn the loop right at P4
	// and at P0.
	p := polygon(2)
	right := func(v geom.Vec) geom.Vec { return geom.V(v.Y, -v.X) }
	x1 := p[4].Add(right(p[4].Sub(p[3])))
	x2 := p[0].Add(right(p[1].Sub(p[0])))
	loop := append(slices.Clone(p), x1, x2)
	for v, want := range []bool{false, true, true, true, false} {
		if Convex(loop, v) != want {
			t.Fatalf("loop vertex %d: convex %v, want %v", v, !want, want)
		}
	}
	if geom.Orient2DSign(p[3], p[4], p[0]) <= 0 || geom.Orient2DSign(p[4], p[0], p[1]) <= 0 {
		t.Fatal("the chain's closing turns are not left turns")
	}
	cv := newConvexRuns(loop)
	for v := 1; v <= 3; v++ {
		if cv.run[v] >= 0 {
			t.Errorf("vertex %d is in run %d of a chain that winds twice", v, cv.run[v])
		}
	}
}

// TestCertificateLeavesOverflowToExactTests: where the predicates'
// products could overflow, the certificate certifies nothing and the
// reference's own tests decide: a loop at 1e300 gets no run, and no ray of
// infinite full length (a growth that overflows) is certified, so the
// result is still the reference's bit for bit.
func TestCertificateLeavesOverflowToExactTests(t *testing.T) {
	if cv := newConvexRuns(circleLoop(64, 1e300).Points); len(cv.chains) != 0 {
		t.Errorf("a loop at 1e300 got %d runs", len(cv.chains))
	}
	p := DefaultParams()
	p.MaxLayers = 5000
	full := fullLength(p)
	if !math.IsInf(full, 1) {
		t.Fatalf("full length %v, want +Inf", full)
	}
	circle := circleLoop(64, 1).Points
	cv := newConvexRuns(circle)
	if !cv.whole {
		t.Fatal("the circle is not one convex run")
	}
	var st Stats
	rays := buildRays(circle, p, &st)
	for i := range rays {
		if id := cv.certify(&rays[i], full); id >= 0 {
			t.Fatalf("ray %d of infinite length certified by run %d", i, id)
		}
	}
	for _, loop := range [][]geom.Point{circle, airfoil.NACA0012.Points(32)} {
		checkResolveSelf(t, "infinite growth", loop, p, 0, nil)
	}
}
