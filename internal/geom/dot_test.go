package geom

import (
	"math"
	"math/big"
	"testing"
)

// ratDot returns the sign of (b-a)·(c-a) in exact rational arithmetic.
func ratDot(a, b, c Point) int {
	r := func(v float64) *big.Rat { return new(big.Rat).SetFloat64(v) }
	sub := func(p, q float64) *big.Rat { return new(big.Rat).Sub(r(p), r(q)) }
	x := new(big.Rat).Mul(sub(b.X, a.X), sub(c.X, a.X))
	y := new(big.Rat).Mul(sub(b.Y, a.Y), sub(c.Y, a.Y))
	return x.Add(x, y).Sign()
}

// dotSeeds lists the seed corpus of FuzzDotSign: exact right angles
// (axis-aligned, and the 3-4-5 pair rotated off the axes), coincident
// points, and the boundary layer's certificate tests — a ray along an edge
// normal against that edge's far end, which is a right angle only up to
// the rounding of the ray's end point — each with every coordinate one ulp
// up and down.
func dotSeeds() [][3]Point {
	base := [][3]Point{
		{{1, 2}, {1, 7}, {4, 2}},
		{{0.1, 0.7}, {0.1 + 3, 0.7 + 4}, {0.1 - 8, 0.7 + 6}},
		{{1e3 / 3, -2.5}, {1e3 / 3, -2.5}, {5, 5}},
		{{-0x1p-30, 0x1p30}, {-0x1p-30 + 0x1p-40, 0x1p30}, {-0x1p-30, 0x1p30 + 1}},
	}
	a, next := Pt(0.3, 0.05), Pt(0.304, 0.0504)
	tangent := next.Sub(a).Unit()
	normal := Vec{tangent.Y, -tangent.X}
	for _, l := range []float64{1e-5, 0.01, 0.7, 30} {
		base = append(base, [3]Point{a, a.Add(normal.Scale(l)), next})
	}
	var seeds [][3]Point
	for _, s := range base {
		seeds = append(seeds, s)
		for i := range 3 {
			for _, dir := range []float64{math.Inf(1), math.Inf(-1)} {
				v := s
				v[i].X = math.Nextafter(s[i].X, dir)
				seeds = append(seeds, v)
				v = s
				v[i].Y = math.Nextafter(s[i].Y, dir)
				seeds = append(seeds, v)
			}
		}
	}
	return seeds
}

// FuzzDotSign: the filtered sign and the expansion sign both equal the
// rational sign. Coordinates are kept where no product of two of them (or
// of their one-ulp differences) overflows or underflows, the precondition
// of the expansion routines.
func FuzzDotSign(f *testing.F) {
	for _, s := range dotSeeds() {
		f.Add(s[0].X, s[0].Y, s[1].X, s[1].Y, s[2].X, s[2].Y)
	}
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if v != 0 && !(math.Abs(v) >= 0x1p-200 && math.Abs(v) <= 0x1p200) {
				t.Skip()
			}
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		want := ratDot(a, b, c)
		if got := DotSign(a, b, c); got != want {
			t.Fatalf("DotSign%v = %d, rational %d", [3]Point{a, b, c}, got, want)
		}
		if got := dotSignExact(a, b, c); got != want {
			t.Fatalf("dotSignExact%v = %d, rational %d", [3]Point{a, b, c}, got, want)
		}
	})
}

// TestDotSignSeedsReachTheExactPath: the seeds exercise the expansion
// fallback, not only the filter.
func TestDotSignSeedsReachTheExactPath(t *testing.T) {
	exact := 0
	for _, s := range dotSeeds() {
		dx := (s[1].X - s[0].X) * (s[2].X - s[0].X)
		dy := (s[1].Y - s[0].Y) * (s[2].Y - s[0].Y)
		if math.Abs(dx+dy) <= ccwErrBoundA*(math.Abs(dx)+math.Abs(dy)) {
			exact++
		}
	}
	if exact == 0 {
		t.Error("no seed falls behind the filter")
	}
}
