package geom

// Tests of the staged in-circle predicate: every stage of the ladder is
// held to the big.Rat oracle of reference_test.go and to inCircleExact, on
// the inputs the boundary layer manufactures (cocircular rectangles and
// extruded-ray trapezoids, exact and one ulp off).

import (
	"math"
	"math/rand"
	"testing"
)

type quad [4]Point

// ulpVariants returns q and q with each coordinate in turn moved one ulp
// up and one ulp down.
func ulpVariants(q quad) []quad {
	out := []quad{q}
	for i := 0; i < 4; i++ {
		for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
			v := q
			v[i].X = math.Nextafter(q[i].X, dir)
			out = append(out, v)
			v = q
			v[i].Y = math.Nextafter(q[i].Y, dir)
			out = append(out, v)
		}
	}
	return out
}

// inCircleSeeds lists the seed corpus of FuzzInCircleSign. An axis-aligned
// rectangle is exactly cocircular whatever its coordinates, so the
// rectangles are the exact zeros: with power-of-two sides at (1, 2) the six
// differences are exact (stage B, tails zero), translated by 0.1 or 1e3/3
// they are not and only stage D can return the zero. The trapezoids
// are two adjacent boundary-layer rays extruded to the bench's layer
// heights.
func inCircleSeeds() []quad {
	var seeds []quad
	rect := func(x0, y0, w, h float64) quad {
		return quad{{x0, y0}, {x0 + w, y0}, {x0 + w, y0 + h}, {x0, y0 + h}}
	}
	for _, scale := range []float64{0x1p-20, 0x1p-3, 1, 0x1p10} {
		for _, off := range []Point{{1, 2}, {0.1, 0.7}, {1e3 / 3, -2.5}, {-0x1p-30, 0x1p30}} {
			seeds = append(seeds, ulpVariants(rect(off.X, off.Y, 3*scale, scale))...)
		}
	}
	// Rays leave surface points p0, p1 along unit normals n0, n1: mirror
	// images for a convex stretch of surface (an isosceles trapezoid per
	// layer), parallel for a flat one (a rectangle, rotated).
	p0, p1 := Pt(0.3, 0.05), Pt(0.304, 0.0504)
	tangent := p1.Sub(p0).Unit()
	normal := Vec{-tangent.Y, tangent.X}
	for _, spread := range []float64{0, 0.02, 0.3} {
		n0 := normal.Sub(tangent.Scale(spread)).Unit()
		n1 := normal.Add(tangent.Scale(spread)).Unit()
		h := 3e-5
		for k := 0; k < 64; k++ {
			h2 := h * 1.15
			q := quad{p0.Add(n0.Scale(h)), p1.Add(n1.Scale(h)), p1.Add(n1.Scale(h2)), p0.Add(n0.Scale(h2))}
			if k%8 == 0 {
				seeds = append(seeds, ulpVariants(q)...)
			} else {
				seeds = append(seeds, q)
			}
			h = h2
		}
	}
	// The adversarial inputs of the older tests: points on a circle nudged
	// by a few ulps, the unit triangle with its fourth corner, and
	// well-separated points.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 64; trial++ {
		r := 1 + rng.Float64()*10
		cx, cy := rng.Float64()*20-10, rng.Float64()*20-10
		var q quad
		for i := range q {
			th := rng.Float64() * 2 * math.Pi
			q[i] = Pt(cx+r*math.Cos(th), cy+r*math.Sin(th))
			for n := rng.Intn(3); n > 0; n-- {
				q[i].X = math.Nextafter(q[i].X, math.Inf(2*rng.Intn(2)-1))
			}
		}
		seeds = append(seeds, q)
	}
	seeds = append(seeds, underflowQuads()...)
	seeds = append(seeds, hugeLiftQuad())
	seeds = append(seeds,
		quad{{0, 0}, {1, 0}, {0, 1}, {1, 1}},
		quad{{0, 0}, {1, 0}, {0, 1}, {1 + 0x1p-52, 1}},
		quad{{0, 0}, {1, 0}, {0, 1}, {5, 5}},
		quad{{0.1, 0.2}, {3.7, 1.9}, {2.2, 8.1}, {2, 3}},
	)
	return seeds
}

// underflowQuads are the triangle (0, 0), (s, 0), (0, s) with a fourth
// point inside, outside and on its circle, at scales where products of
// four coordinates underflow (s = 1e-100, 1e-78) or overflow (1e77,
// 1e80), and at the edges of inCircleRange.
func underflowQuads() []quad {
	var qs []quad
	for _, s := range []float64{1e-100, 1e-78, 1e77, 1e80, 0x1p-216, 0x1p-217, 0x1p250, 0x1p251, 4 * math.SmallestNonzeroFloat64, math.MaxFloat64 / 4} {
		for _, d := range []Point{{s / 4, s / 4}, {2 * s, 2 * s}, {s, s}, {s, 0}} {
			qs = append(qs, quad{{0, 0}, {s, 0}, {0, s}, d})
		}
	}
	return qs
}

// TestInCircleUnderflow pins the signs that were lost when products of
// four coordinates under- or overflowed: an inside point reads +1, an
// outside point -1, a cocircular point and a repeated corner 0.
func TestInCircleUnderflow(t *testing.T) {
	qs := underflowQuads()
	for i, q := range qs {
		want := [4]int{1, -1, 0, 0}[i%4]
		if got := InCircleSign(q[0], q[1], q[2], q[3]); got != want {
			t.Errorf("InCircleSign%v = %d, want %d", q, got, want)
		}
		if got := ratInCircle(q[0], q[1], q[2], q[3]); got != want {
			t.Errorf("ratInCircle%v = %d, want %d", q, got, want)
		}
	}
	// A huge lift on a minor whose products underflow: the plain
	// determinant reads about -2^-920 and clears stage A's relative bound,
	// while the lost term alift·bdx·cdy = 2^-100 decides the sign.
	q := hugeLiftQuad()
	if got := InCircleSign(q[0], q[1], q[2], q[3]); got != 1 {
		t.Errorf("InCircleSign%v = %d, want 1", q, got)
	}
}

// hugeLiftQuad is TestInCircleUnderflow's huge lift: translated by d =
// (0, 0), adx = 2^500, bdx·cdy = 2^-1100 and cdx = 0.
func hugeLiftQuad() quad {
	return quad{{0x1p500, 0}, {0x1p-600, 0x1p-460}, {0, 0x1p-500}, {0, 0}}
}

// checkInCircle holds the staged predicate's sign to both oracles and
// returns the stage that decided; inCircleExact is held to them only on
// coordinates in its exact range.
func checkInCircle(t *testing.T, q quad) icStage {
	t.Helper()
	det, stage := inCircleStaged(q[0], q[1], q[2], q[3])
	if v := InCircle(q[0], q[1], q[2], q[3]); v != det {
		t.Fatalf("InCircle = %v, inCircleStaged = %v for %v", v, det, q)
	}
	want := ratInCircle(q[0], q[1], q[2], q[3])
	if got := sign(det); got != want {
		t.Fatalf("staged sign %d (stage %d, value %v), rational %d for %v", got, stage, det, want, q)
	}
	if !inCircleRange(q[0], q[1], q[2], q[3]) {
		return stage
	}
	if got := sign(inCircleExact(q[0], q[1], q[2], q[3])); got != want {
		t.Fatalf("inCircleExact sign %d, rational %d for %v", got, want, q)
	}
	return stage
}

// TestInCircleStagesReached pins that the seed corpus exercises every rung
// of the ladder: a stage no input reaches is untested code.
func TestInCircleStagesReached(t *testing.T) {
	reached := map[icStage]int{}
	for _, q := range inCircleSeeds() {
		reached[checkInCircle(t, q)]++
	}
	for _, s := range []struct {
		stage icStage
		name  string
	}{{icStageA, "A"}, {icStageB, "B"}, {icStageBExact, "B, tails zero"}, {icStageC, "C"}, {icStageD, "D"}, {icStageRational, "rational"}} {
		if reached[s.stage] == 0 {
			t.Errorf("no seed input is decided by stage %s", s.name)
		}
		t.Logf("stage %s: %d inputs", s.name, reached[s.stage])
	}
}

// TestInCircleAllocatesNothing: the stages behind the filter work in the
// pooled arena, so the cocircular trapezoids of a boundary layer cost no
// allocation whichever stage decides them.
func TestInCircleAllocatesNothing(t *testing.T) {
	for _, q := range []quad{
		{{0, 0}, {1, 0}, {0, 1}, {1, 1}},                               // stage B, tails zero
		{{0.1, 0.7}, {3.1, 0.7}, {3.1, 1.7}, {0.1, 1.7}},               // stage D
		{{0.3, 0.05}, {0.304, 0.05}, {0.3045, 0.051}, {0.2995, 0.051}}, // isosceles trapezoid
	} {
		if n := testing.AllocsPerRun(200, func() { InCircle(q[0], q[1], q[2], q[3]) }); n != 0 {
			t.Errorf("InCircle%v: %v allocations per call, want 0", q, n)
		}
	}
}

// FuzzInCircleSign: the staged sign equals the rational sign for every
// finite input, on raw bit patterns: subnormal and huge coordinates, and
// mixtures of them whose products of four leave the exact range of the
// expansions. Inside inCircleRange the full-expansion sign equals them
// too.
func FuzzInCircleSign(f *testing.F) {
	for _, q := range inCircleSeeds() {
		f.Add(q[0].X, q[0].Y, q[1].X, q[1].Y, q[2].X, q[2].Y, q[3].X, q[3].Y)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy, dx, dy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy, dx, dy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip() // no rational value
			}
		}
		checkInCircle(t, quad{{ax, ay}, {bx, by}, {cx, cy}, {dx, dy}})
	})
}
