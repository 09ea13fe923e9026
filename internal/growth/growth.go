// Package growth provides the boundary-layer growth functions of
// Garimella & Shephard used by the paper's extrusion-based point
// insertion: the distance of the i-th layer point from the surface along
// the surface normal. Geometric and polynomial growth give uniform
// gradation; the adaptive function blends them for complex geometries.
package growth

import "math"

// Function maps a zero-based layer index to the offset of that layer from
// the surface. Offset(0) is the first point off the wall and must be
// positive; Offset must be strictly increasing.
type Function interface {
	// Offset returns the distance of layer i from the surface.
	Offset(i int) float64
	// Spacing returns the gap between layers i and i+1.
	Spacing(i int) float64
}

// Geometric grows the spacing by a constant ratio per layer:
// spacing_i = H0 * Ratio^i, so Offset(i) = H0 * (Ratio^(i+1)-1)/(Ratio-1).
type Geometric struct {
	// H0 is the first-layer height, typically chord * 1e-4 .. 1e-6 for the
	// 10,000:1 aspect ratios the paper cites.
	H0 float64
	// Ratio is the per-layer growth ratio, typically 1.1 to 1.3.
	Ratio float64
}

// Offset implements Function.
func (g Geometric) Offset(i int) float64 {
	if g.Ratio == 1 {
		return g.H0 * float64(i+1)
	}
	return g.H0 * (math.Pow(g.Ratio, float64(i+1)) - 1) / (g.Ratio - 1)
}

// Spacing implements Function.
func (g Geometric) Spacing(i int) float64 {
	return g.H0 * math.Pow(g.Ratio, float64(i))
}

// Polynomial grows the offset as H0 * (i+1)^Power; Power=1 gives uniform
// spacing, Power=2 quadratic growth.
type Polynomial struct {
	H0    float64
	Power float64
}

// Offset implements Function.
func (p Polynomial) Offset(i int) float64 {
	return p.H0 * math.Pow(float64(i+1), p.Power)
}

// Spacing implements Function.
func (p Polynomial) Spacing(i int) float64 {
	return p.Offset(i) - offsetBefore(p, i)
}

// Adaptive blends a geometric near-wall region into polynomial far-field
// growth at layer Switch, the kind of composite function Garimella &
// Shephard recommend for complex geometries.
type Adaptive struct {
	Near   Geometric
	Far    Polynomial
	Switch int
}

// Offset implements Function.
func (a Adaptive) Offset(i int) float64 {
	if i < a.Switch {
		return a.Near.Offset(i)
	}
	base := a.Near.Offset(a.Switch - 1)
	return base + a.Far.Offset(i-a.Switch)
}

// Spacing implements Function.
func (a Adaptive) Spacing(i int) float64 {
	return a.Offset(i) - offsetBefore(a, i)
}

func offsetBefore(f Function, i int) float64 {
	if i == 0 {
		return 0
	}
	return f.Offset(i - 1)
}
