// Package airfoil generates the test geometries of the paper: NACA
// four-digit airfoil sections (the NACA 0012 of Figure 2) and a synthetic
// three-element high-lift configuration standing in for the proprietary
// 30p30n coordinates. The synthetic configuration exercises every feature
// the 30p30n exercises: a sharp trailing-edge cusp, a blunt trailing edge
// with slope discontinuities, concave cove corners, leading-edge
// curvature, and narrow inter-element gaps.
package airfoil

import (
	"fmt"
	"math"

	"pamg2d/internal/geom"
	"pamg2d/internal/pslg"
)

// NACA4 describes a four-digit NACA section.
type NACA4 struct {
	// MaxCamber is the maximum camber as a fraction of chord (first digit
	// over 100); 0 for symmetric sections.
	MaxCamber float64
	// CamberPos is the chordwise position of maximum camber (second digit
	// over 10).
	CamberPos float64
	// Thickness is the maximum thickness as a fraction of chord (last two
	// digits over 100), e.g. 0.12 for the NACA 0012.
	Thickness float64
	// ClosedTE selects the closed trailing-edge thickness polynomial
	// (-0.1036 coefficient) so the upper and lower surfaces meet in a
	// sharp cusp. With false, the section has the classic open (blunt)
	// trailing edge of finite thickness.
	ClosedTE bool
}

// NACA0012 is the symmetric 12%-thickness section used in Figure 2.
var NACA0012 = NACA4{Thickness: 0.12, ClosedTE: true}

// Thickness4 evaluates the half-thickness distribution at chord fraction x.
func (n NACA4) Thickness4(x float64) float64 {
	c4 := -0.1015
	if n.ClosedTE {
		c4 = -0.1036
	}
	return 5 * n.Thickness * (0.2969*math.Sqrt(x) - 0.1260*x - 0.3516*x*x +
		0.2843*x*x*x + c4*x*x*x*x)
}

// Camber evaluates the mean camber line and its slope at chord fraction x.
func (n NACA4) Camber(x float64) (yc, dyc float64) {
	m, p := n.MaxCamber, n.CamberPos
	if m == 0 || p == 0 {
		return 0, 0
	}
	if x < p {
		yc = m / (p * p) * (2*p*x - x*x)
		dyc = 2 * m / (p * p) * (p - x)
	} else {
		yc = m / ((1 - p) * (1 - p)) * ((1 - 2*p) + 2*p*x - x*x)
		dyc = 2 * m / ((1 - p) * (1 - p)) * (p - x)
	}
	return yc, dyc
}

// Points samples the section with 2n+1 surface points using cosine
// clustering (dense at the leading and trailing edges, where the paper
// needs resolution). The loop runs counter-clockwise: from the trailing
// edge along the upper surface to the leading edge and back along the
// lower surface. For a CCW body loop the outward normal (into the fluid)
// of a directed edge is the edge direction rotated -90 degrees. For an
// open trailing edge the first and last points differ (blunt TE); for a
// closed one the trailing-edge point is shared.
func (n NACA4) Points(nHalf int) []geom.Point {
	if nHalf < 4 {
		nHalf = 4
	}
	var pts []geom.Point
	// Upper surface: x from 1 to 0.
	for i := 0; i <= nHalf; i++ {
		beta := math.Pi * float64(i) / float64(nHalf)
		x := 0.5 * (1 + math.Cos(beta)) // 1 -> 0
		pts = append(pts, n.surfacePoint(x, true))
	}
	// Lower surface: x from 0 to 1, skipping the shared leading edge.
	for i := 1; i <= nHalf; i++ {
		beta := math.Pi * float64(i) / float64(nHalf)
		x := 0.5 * (1 - math.Cos(beta)) // 0 -> 1
		p := n.surfacePoint(x, false)
		// With a closed trailing edge the last lower point coincides with
		// the first upper point; drop it to keep the loop simple.
		if n.ClosedTE && i == nHalf {
			break
		}
		pts = append(pts, p)
	}
	return pts
}

func (n NACA4) surfacePoint(x float64, upper bool) geom.Point {
	yt := n.Thickness4(x)
	yc, dyc := n.Camber(x)
	th := math.Atan(dyc)
	if upper {
		return geom.Pt(x-yt*math.Sin(th), yc+yt*math.Cos(th))
	}
	return geom.Pt(x+yt*math.Sin(th), yc-yt*math.Cos(th))
}

// Transform places a unit-chord section: scale by Chord, rotate by
// -AngleDeg (positive angle pitches the leading edge down, the convention
// for deployed slats/flaps), then translate by Offset.
type Transform struct {
	Chord    float64
	AngleDeg float64
	Offset   geom.Vec
}

// Apply maps a point of the unit section.
func (tr Transform) Apply(p geom.Point) geom.Point {
	th := -tr.AngleDeg * math.Pi / 180
	v := geom.V(p.X*tr.Chord, p.Y*tr.Chord).Rotate(th)
	return geom.Pt(v.X+tr.Offset.X, v.Y+tr.Offset.Y)
}

// TransformAll maps a whole loop.
func (tr Transform) TransformAll(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[i] = tr.Apply(p)
	}
	return out
}

// Element is one member of a multi-element configuration.
type Element struct {
	Name    string
	Section NACA4
	Place   Transform
	NHalf   int
	// Cove, when true, cuts a rectangular cove (concave notch) into the
	// lower aft surface, exercising the self-intersection handling at
	// concave corners (paper Figure 13b/13c).
	Cove bool
}

// Loop generates the element's placed surface loop.
func (e Element) Loop() pslg.Loop {
	pts := e.Section.Points(e.NHalf)
	if e.Cove {
		pts = cutCove(pts)
	}
	placed := e.Place.TransformAll(pts)
	return pslg.Loop{Points: placed, Name: e.Name}
}

// cutCove replaces part of the lower aft surface (unit-chord coordinates
// roughly x in [0.6, 0.85]) with a rectangular notch carved upward into
// the section.
func cutCove(pts []geom.Point) []geom.Point {
	var out []geom.Point
	const x0, x1 = 0.6, 0.85
	depth := 0.03
	skipping := false
	for i, p := range pts {
		onLower := i > len(pts)/2 // lower surface comes second
		if onLower && p.X > x0 && p.X < x1 {
			if !skipping {
				skipping = true
				// Entry corner: drop into the cove with two right angles.
				out = append(out, p, geom.Pt(p.X, p.Y+depth))
			}
			continue
		}
		if skipping {
			// Exit corner.
			prev := out[len(out)-1]
			out = append(out, geom.Pt(p.X, prev.Y), p)
			skipping = false
			continue
		}
		out = append(out, p)
	}
	return out
}

// Config is a complete meshing geometry: the airfoil elements plus the
// far-field box sized in chord lengths.
type Config struct {
	Elements []Element
	// FarfieldChords is the half-width of the square far-field box in
	// chord lengths (the paper uses 30 to 50).
	FarfieldChords float64
	// Chord is the reference chord length (the main element's).
	Chord float64
}

// Graph builds and validates the PSLG of the configuration.
func (c Config) Graph() (*pslg.Graph, error) {
	g := &pslg.Graph{}
	for _, e := range c.Elements {
		g.Surfaces = append(g.Surfaces, e.Loop())
	}
	half := c.FarfieldChords * c.Chord
	if half <= 0 {
		half = 30 * c.Chord
	}
	// Center the far-field box on the union of the surfaces.
	bb := geom.EmptyBBox()
	for i := range g.Surfaces {
		bb = bb.Union(g.Surfaces[i].BBox())
	}
	ctr := bb.Center()
	g.Farfield = pslg.Loop{
		Name: "farfield",
		Points: []geom.Point{
			geom.Pt(ctr.X-half, ctr.Y-half),
			geom.Pt(ctr.X+half, ctr.Y-half),
			geom.Pt(ctr.X+half, ctr.Y+half),
			geom.Pt(ctr.X-half, ctr.Y+half),
		},
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("airfoil: %w", err)
	}
	return g, nil
}

// Single returns a single-element configuration for the given section.
func Single(sec NACA4, nHalf int, farfieldChords float64) Config {
	return Config{
		Elements: []Element{{
			Name:    "main",
			Section: sec,
			Place:   Transform{Chord: 1},
			NHalf:   nHalf,
		}},
		FarfieldChords: farfieldChords,
		Chord:          1,
	}
}

// ThreeElement returns the synthetic high-lift configuration standing in
// for the 30p30n: a deployed leading-edge slat, a main element with a cove,
// and a deployed trailing-edge flap. Deflections and gaps follow typical
// high-lift geometry (30 degree slat and flap deflections give the
// configuration its name).
func ThreeElement(nHalf int) Config {
	slat := Element{
		Name:    "slat",
		Section: NACA4{Thickness: 0.10, MaxCamber: 0.04, CamberPos: 0.4, ClosedTE: true},
		Place:   Transform{Chord: 0.18, AngleDeg: 30, Offset: geom.V(-0.13, -0.055)},
		NHalf:   maxInt(nHalf/3, 8),
	}
	main := Element{
		Name:    "main",
		Section: NACA4{Thickness: 0.12, MaxCamber: 0.02, CamberPos: 0.4, ClosedTE: false},
		Place:   Transform{Chord: 0.65, AngleDeg: 0, Offset: geom.V(0.0, 0.0)},
		NHalf:   nHalf,
		Cove:    true,
	}
	flap := Element{
		Name:    "flap",
		Section: NACA4{Thickness: 0.10, MaxCamber: 0.03, CamberPos: 0.35, ClosedTE: true},
		Place:   Transform{Chord: 0.28, AngleDeg: -30, Offset: geom.V(0.67, -0.015)},
		NHalf:   maxInt(nHalf/2, 8),
	}
	return Config{
		Elements:       []Element{slat, main, flap},
		FarfieldChords: 30,
		Chord:          1,
	}
}

// ByName returns a built-in configuration by the name the commands and
// meshd requests use: "naca0012" (or empty) for Single(NACA0012, …) and
// "30p30n" for ThreeElement, at nHalf surface half-points and a far field
// of farfieldChords chords.
func ByName(name string, nHalf int, farfieldChords float64) (Config, error) {
	switch name {
	case "", "naca0012":
		return Single(NACA0012, nHalf, farfieldChords), nil
	case "30p30n":
		c := ThreeElement(nHalf)
		c.FarfieldChords = farfieldChords
		return c, nil
	}
	return Config{}, fmt.Errorf("unknown geometry %q", name)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
