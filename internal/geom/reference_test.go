package geom

// Reference implementations of the geometric predicates in exact rational
// arithmetic (math/big.Rat). These are far too slow for production but
// cannot be wrong, so the fast filtered-expansion predicates are
// property-tested against them, including on adversarial near-degenerate
// inputs.

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

func ratOrient2D(a, b, c Point) int {
	ax, ay := new(big.Rat).SetFloat64(a.X), new(big.Rat).SetFloat64(a.Y)
	bx, by := new(big.Rat).SetFloat64(b.X), new(big.Rat).SetFloat64(b.Y)
	cx, cy := new(big.Rat).SetFloat64(c.X), new(big.Rat).SetFloat64(c.Y)
	// (ax-cx)(by-cy) - (ay-cy)(bx-cx)
	l := new(big.Rat).Mul(new(big.Rat).Sub(ax, cx), new(big.Rat).Sub(by, cy))
	r := new(big.Rat).Mul(new(big.Rat).Sub(ay, cy), new(big.Rat).Sub(bx, cx))
	return l.Cmp(r)
}

func ratInCircle(a, b, c, d Point) int {
	coord := func(p Point) (x, y, l *big.Rat) {
		x = new(big.Rat).SetFloat64(p.X)
		y = new(big.Rat).SetFloat64(p.Y)
		l = new(big.Rat).Add(new(big.Rat).Mul(x, x), new(big.Rat).Mul(y, y))
		return
	}
	ax, ay, al := coord(a)
	bx, by, bl := coord(b)
	cx, cy, cl := coord(c)
	dx, dy, dl := coord(d)
	// Translate by d.
	sub := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Sub(p, q) }
	mul := func(p, q *big.Rat) *big.Rat { return new(big.Rat).Mul(p, q) }
	adx, ady := sub(ax, dx), sub(ay, dy)
	bdx, bdy := sub(bx, dx), sub(by, dy)
	cdx, cdy := sub(cx, dx), sub(cy, dy)
	// Lifted third column: |p|^2 - |d|^2 - 2 d.(p-d) ... equivalently use
	// the direct 3x3 determinant with rows (pdx, pdy, |p|^2-|d|^2-2(dx*pdx+dy*pdy)).
	lift := func(pl, pdx, pdy *big.Rat) *big.Rat {
		t := new(big.Rat).Sub(pl, dl)
		t.Sub(t, mul(big.NewRat(2, 1), new(big.Rat).Add(mul(dx, pdx), mul(dy, pdy))))
		return t
	}
	la := lift(al, adx, ady)
	lb := lift(bl, bdx, bdy)
	lc := lift(cl, cdx, cdy)
	// det = la*(bdx*cdy-cdx*bdy) - lb*(adx*cdy-cdx*ady) + lc*(adx*bdy-bdx*ady)
	m1 := new(big.Rat).Sub(mul(bdx, cdy), mul(cdx, bdy))
	m2 := new(big.Rat).Sub(mul(adx, cdy), mul(cdx, ady))
	m3 := new(big.Rat).Sub(mul(adx, bdy), mul(bdx, ady))
	det := new(big.Rat).Mul(la, m1)
	det.Sub(det, mul(lb, m2))
	det.Add(det, mul(lc, m3))
	return det.Sign()
}

func TestOrient2DMatchesRational(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e6)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		return Orient2DSign(a, b, c) == ratOrient2D(a, b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// orientSeeds are triples whose orientation the filter alone cannot
// decide: products that underflow to zero from nonzero differences (the
// first is the vertical edge and query of the loop (1e-170, 0), (1, 1),
// (1e-170, 1e-170) around (0, 0)), subnormal and overflowing determinant
// sums, and coordinates whose expansion products under- or overflow
// where the filter sends them to the exact path, within and beyond the
// range a power-of-two rescale could bring them back into.
func orientSeeds() [][3]Point {
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	return [][3]Point{
		{{1e-170, 1e-170}, {1e-170, 0}, {0, 0}},
		{{1e-170, 0}, {1, 1}, {1e-170, 1e-170}},
		{{0, 0}, {1e-170, 1e-170}, {2e-170, 2e-170 + 1e-185}},
		{{0, 0}, {tiny, 0}, {0, tiny}},
		{{0, 0}, {3 * tiny, tiny}, {6 * tiny, 2 * tiny}},
		{{1e-200, 2e-200}, {3e-200, 4e-200}, {1, 1}},
		{{1e-300, 2e-300}, {3e-300, 4e-300}, {1e300, 1e300}},
		{{1e300, 1e300}, {-1e300, -1e300}, {1e300, -1e300}},
		{{huge, huge}, {-huge, -huge}, {huge, -huge}},
		{{1e200, 1e200 + 2e184}, {2e200, 2e200 + 4e184}, {3e200, 3e200 + 6e184}},
	}
}

// TestOrient2DUnderflow pins the orientation of the seeds to the rational
// sign; the first is the loop whose scan counted a crossing that is not
// there.
func TestOrient2DUnderflow(t *testing.T) {
	for i, s := range orientSeeds() {
		for k := 0; k < 3; k++ { // every rotation
			a, b, c := s[k], s[(k+1)%3], s[(k+2)%3]
			if got, want := Orient2DSign(a, b, c), ratOrient2D(a, b, c); got != want {
				t.Errorf("seed %d rotation %d: Orient2DSign(%v, %v, %v) = %d, rational %d", i, k, a, b, c, got, want)
			}
		}
	}
	if got := Orient2DSign(Pt(1e-170, 1e-170), Pt(1e-170, 0), Pt(0, 0)); got != -1 {
		t.Errorf("(0, 0) reads %d against the edge down x = 1e-170, want -1: right of it", got)
	}
}

// FuzzOrient2DSign: the orientation sign equals the rational sign for
// every finite input, on raw bit patterns: subnormal and huge coordinates,
// and mixtures of them no rescaling brings into one exponent window.
func FuzzOrient2DSign(f *testing.F) {
	for _, s := range orientSeeds() {
		f.Add(s[0].X, s[0].Y, s[1].X, s[1].Y, s[2].X, s[2].Y)
	}
	f.Add(0.1, 0.2, 3.7, 1.9, 2.2, 8.1)
	f.Add(12.0, 12.0, 24.0, math.Nextafter(24, 25), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		for _, v := range []float64{ax, ay, bx, by, cx, cy} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip() // no rational value
			}
		}
		a, b, c := Pt(ax, ay), Pt(bx, by), Pt(cx, cy)
		if got, want := Orient2DSign(a, b, c), ratOrient2D(a, b, c); got != want {
			t.Fatalf("Orient2DSign(%v, %v, %v) = %d, rational %d", a, b, c, got, want)
		}
	})
}

func TestOrient2DMatchesRationalNearDegenerate(t *testing.T) {
	// Points perturbed by single ulps around a collinear configuration:
	// the regime where naive floating-point evaluation fails.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 3000; trial++ {
		base := rng.Float64() * 10
		dir := rng.Float64()*2 - 1
		a := Point{base, base * dir}
		b := Point{base + 1, (base + 1) * dir}
		c := Point{base + 2, (base + 2) * dir}
		// Nudge each coordinate by up to 2 ulps.
		nudge := func(v float64) float64 {
			for i := 0; i < rng.Intn(3); i++ {
				if rng.Intn(2) == 0 {
					v = math.Nextafter(v, math.Inf(1))
				} else {
					v = math.Nextafter(v, math.Inf(-1))
				}
			}
			return v
		}
		a = Point{nudge(a.X), nudge(a.Y)}
		b = Point{nudge(b.X), nudge(b.Y)}
		c = Point{nudge(c.X), nudge(c.Y)}
		if got, want := Orient2DSign(a, b, c), ratOrient2D(a, b, c); got != want {
			t.Fatalf("trial %d: Orient2DSign=%d rational=%d for %v %v %v", trial, got, want, a, b, c)
		}
	}
}

func TestInCircleMatchesRational(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 1e3)
		}
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		c := Point{clamp(cx), clamp(cy)}
		d := Point{clamp(dx), clamp(dy)}
		return InCircleSign(a, b, c, d) == ratInCircle(a, b, c, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestInCircleMatchesRationalNearCocircular(t *testing.T) {
	// Four points nudged off a common circle by ulps.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 1500; trial++ {
		r := 1 + rng.Float64()*10
		cx := rng.Float64()*20 - 10
		cy := rng.Float64()*20 - 10
		pt := func() Point {
			th := rng.Float64() * 2 * math.Pi
			p := Point{cx + r*math.Cos(th), cy + r*math.Sin(th)}
			nudge := func(v float64) float64 {
				for i := 0; i < rng.Intn(3); i++ {
					if rng.Intn(2) == 0 {
						v = math.Nextafter(v, math.Inf(1))
					} else {
						v = math.Nextafter(v, math.Inf(-1))
					}
				}
				return v
			}
			return Point{nudge(p.X), nudge(p.Y)}
		}
		a, b, c, d := pt(), pt(), pt(), pt()
		if got, want := InCircleSign(a, b, c, d), ratInCircle(a, b, c, d); got != want {
			t.Fatalf("trial %d: InCircleSign=%d rational=%d for %v %v %v %v", trial, got, want, a, b, c, d)
		}
	}
}

func TestExpansionSignMatchesRational(t *testing.T) {
	// Arena sum/scale chains evaluated exactly versus big.Rat.
	f := func(a, b, c, d, s float64) bool {
		fix := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 1
			}
			return math.Mod(v, 1e8)
		}
		a, b, c, d, s = fix(a), fix(b), fix(c), fix(d), fix(s)
		// Exact value of (a*b - c*d) * s via expansions.
		ar := getArena()
		defer putArena(ar)
		e := ar.scale(ar.twoTwoDiff(a, b, c, d), s)
		// Same in rationals.
		ra := new(big.Rat).SetFloat64(a)
		rb := new(big.Rat).SetFloat64(b)
		rc := new(big.Rat).SetFloat64(c)
		rd := new(big.Rat).SetFloat64(d)
		rs := new(big.Rat).SetFloat64(s)
		want := new(big.Rat).Sub(new(big.Rat).Mul(ra, rb), new(big.Rat).Mul(rc, rd))
		want.Mul(want, rs)
		if expSign(e) != want.Sign() {
			return false
		}
		// The expansion's exact sum must equal the rational value.
		sum := new(big.Rat)
		for _, comp := range e {
			sum.Add(sum, new(big.Rat).SetFloat64(comp))
		}
		return sum.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
