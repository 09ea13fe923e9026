package growth

import (
	"math"
	"testing"
	"testing/quick"
)

func TestGeometricOffsets(t *testing.T) {
	g := Geometric{H0: 1e-4, Ratio: 1.2}
	if got := g.Offset(0); math.Abs(got-1e-4) > 1e-18 {
		t.Errorf("Offset(0) = %v, want 1e-4", got)
	}
	// Offset(1) = h0*(1 + r).
	if got, want := g.Offset(1), 1e-4*2.2; math.Abs(got-want) > 1e-15 {
		t.Errorf("Offset(1) = %v, want %v", got, want)
	}
	// Spacing(i) = h0 * r^i.
	if got, want := g.Spacing(3), 1e-4*math.Pow(1.2, 3); math.Abs(got-want) > 1e-15 {
		t.Errorf("Spacing(3) = %v, want %v", got, want)
	}
}

func TestGeometricRatioOne(t *testing.T) {
	g := Geometric{H0: 0.5, Ratio: 1}
	if got := g.Offset(3); got != 2 {
		t.Errorf("uniform growth Offset(3) = %v, want 2", got)
	}
	if got := g.Spacing(7); got != 0.5 {
		t.Errorf("uniform growth Spacing(7) = %v, want 0.5", got)
	}
}

func TestPolynomial(t *testing.T) {
	p := Polynomial{H0: 0.1, Power: 2}
	if got := p.Offset(2); math.Abs(got-0.9) > 1e-15 {
		t.Errorf("Offset(2) = %v, want 0.9", got)
	}
	if got := p.Spacing(0); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("Spacing(0) = %v, want 0.1", got)
	}
	if got := p.Spacing(2); math.Abs(got-0.5) > 1e-15 {
		t.Errorf("Spacing(2) = %v, want 0.5 (0.9-0.4)", got)
	}
}

func TestAdaptiveContinuity(t *testing.T) {
	a := Adaptive{
		Near:   Geometric{H0: 1e-3, Ratio: 1.3},
		Far:    Polynomial{H0: 5e-3, Power: 1.5},
		Switch: 5,
	}
	// Offsets must be strictly increasing across the switch.
	prev := 0.0
	for i := 0; i < 20; i++ {
		o := a.Offset(i)
		if o <= prev {
			t.Fatalf("Offset not increasing at %d: %v <= %v", i, o, prev)
		}
		prev = o
	}
}

// Property: all growth functions produce strictly increasing offsets and
// positive spacings.
func TestMonotoneProperty(t *testing.T) {
	f := func(h0Raw, ratioRaw uint16) bool {
		h0 := 1e-6 + float64(h0Raw)/1e6
		ratio := 1.0 + float64(ratioRaw%5000)/10000 // 1.0 .. 1.5
		funcs := []Function{
			Geometric{H0: h0, Ratio: ratio},
			Polynomial{H0: h0, Power: 1.7},
			Adaptive{Near: Geometric{H0: h0, Ratio: ratio}, Far: Polynomial{H0: h0 * 10, Power: 1.2}, Switch: 4},
		}
		for _, fn := range funcs {
			prev := 0.0
			for i := 0; i < 30; i++ {
				o := fn.Offset(i)
				if o <= prev {
					return false
				}
				if fn.Spacing(i) <= 0 {
					return false
				}
				prev = o
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
