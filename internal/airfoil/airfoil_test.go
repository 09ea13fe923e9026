package airfoil

import (
	"math"
	"testing"

	"pamg2d/internal/geom"
)

func TestNACA0012Thickness(t *testing.T) {
	n := NACA0012
	// Maximum thickness of 12% occurs near x = 0.30.
	yt := n.Thickness4(0.30)
	if math.Abs(yt-0.06) > 0.002 {
		t.Errorf("half thickness at 0.3 = %v, want ~0.06", yt)
	}
	// Closed trailing edge: thickness at x=1 is ~0.
	if te := n.Thickness4(1.0); math.Abs(te) > 1e-4 {
		t.Errorf("closed TE thickness = %v, want ~0", te)
	}
	// Open trailing edge has finite thickness.
	open := NACA4{Thickness: 0.12}
	if te := open.Thickness4(1.0); te < 1e-3 {
		t.Errorf("open TE thickness = %v, want > 0.001", te)
	}
}

func TestNACA0012Symmetry(t *testing.T) {
	n := NACA0012
	for _, x := range []float64{0.1, 0.3, 0.5, 0.9} {
		up := n.surfacePoint(x, true)
		lo := n.surfacePoint(x, false)
		if math.Abs(up.Y+lo.Y) > 1e-12 || math.Abs(up.X-lo.X) > 1e-12 {
			t.Errorf("x=%v: symmetric section must mirror: %v vs %v", x, up, lo)
		}
	}
}

func TestCamberedSection(t *testing.T) {
	// NACA 2412.
	n := NACA4{MaxCamber: 0.02, CamberPos: 0.4, Thickness: 0.12, ClosedTE: true}
	yc, _ := n.Camber(0.4)
	if math.Abs(yc-0.02) > 1e-12 {
		t.Errorf("max camber = %v, want 0.02", yc)
	}
	// Camber slope is zero at the maximum.
	_, dyc := n.Camber(0.4)
	if math.Abs(dyc) > 1e-12 {
		t.Errorf("camber slope at max = %v, want 0", dyc)
	}
	// Upper surface must be above the lower one at mid chord.
	up := n.surfacePoint(0.5, true)
	lo := n.surfacePoint(0.5, false)
	if up.Y <= lo.Y {
		t.Error("upper surface below lower surface")
	}
}

func TestPointsLoopShape(t *testing.T) {
	pts := NACA0012.Points(32)
	// Closed TE: 2*32 points (TE shared, LE shared).
	if len(pts) != 64 {
		t.Errorf("closed-TE point count = %d, want 64", len(pts))
	}
	// The loop must be counter-clockwise (TE -> upper surface -> LE ->
	// lower surface).
	var area float64
	for i := range pts {
		p, q := pts[i], pts[(i+1)%len(pts)]
		area += p.X*q.Y - q.X*p.Y
	}
	if area <= 0 {
		t.Errorf("airfoil loop must be CCW, signed area %v", area)
	}
	// First point is the trailing edge (x ~ 1), and some point reaches the
	// leading edge (x ~ 0).
	if math.Abs(pts[0].X-1) > 1e-9 {
		t.Errorf("first point %v, want trailing edge", pts[0])
	}
	minX := 1.0
	for _, p := range pts {
		if p.X < minX {
			minX = p.X
		}
	}
	if minX > 0.001 {
		t.Errorf("leading edge x = %v, want ~0", minX)
	}
}

func TestOpenTEHasTwoTrailingPoints(t *testing.T) {
	open := NACA4{Thickness: 0.12}
	pts := open.Points(16)
	first := pts[0]
	last := pts[len(pts)-1]
	if math.Abs(first.X-1) > 1e-9 || math.Abs(last.X-1) > 1e-9 {
		t.Fatalf("blunt TE endpoints: %v %v", first, last)
	}
	if first == last {
		t.Error("open TE must have distinct upper/lower trailing points")
	}
	if first.Y <= last.Y {
		t.Error("upper TE point must be above lower TE point")
	}
}

func TestTransform(t *testing.T) {
	tr := Transform{Chord: 2, AngleDeg: 90, Offset: geom.V(1, 1)}
	// Unit point (1,0): scaled (2,0), rotated -90deg -> (0,-2), translated (1,-1).
	got := tr.Apply(geom.Pt(1, 0))
	if got.Dist(geom.Pt(1, -1)) > 1e-12 {
		t.Errorf("Apply = %v, want (1,-1)", got)
	}
}

func TestSingleConfigGraph(t *testing.T) {
	cfg := Single(NACA0012, 64, 30)
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Surfaces) != 1 {
		t.Fatalf("surfaces = %d", len(g.Surfaces))
	}
	if len(g.Farfield.Points) != 4 {
		t.Fatalf("farfield points = %d", len(g.Farfield.Points))
	}
	if !g.Farfield.IsCCW() {
		t.Error("farfield must be CCW")
	}
	// Far-field half-width 30 chords.
	if w := g.Farfield.BBox().Width(); math.Abs(w-60) > 1e-9 {
		t.Errorf("farfield width = %v, want 60", w)
	}
}

func TestThreeElementGraph(t *testing.T) {
	cfg := ThreeElement(48)
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Surfaces) != 3 {
		t.Fatalf("surfaces = %d, want 3", len(g.Surfaces))
	}
	names := map[string]bool{}
	for i := range g.Surfaces {
		names[g.Surfaces[i].Name] = true
	}
	for _, want := range []string{"slat", "main", "flap"} {
		if !names[want] {
			t.Errorf("missing element %q", want)
		}
	}
	// The slat must sit ahead of the main element, the flap behind.
	var slat, main, flap geom.BBox
	for i := range g.Surfaces {
		switch g.Surfaces[i].Name {
		case "slat":
			slat = g.Surfaces[i].BBox()
		case "main":
			main = g.Surfaces[i].BBox()
		case "flap":
			flap = g.Surfaces[i].BBox()
		}
	}
	if slat.Center().X >= main.Center().X {
		t.Error("slat must be ahead of the main element")
	}
	if flap.Center().X <= main.Center().X {
		t.Error("flap must be behind the main element")
	}
}

func TestCoveCreatesConcaveCorners(t *testing.T) {
	cfg := ThreeElement(48)
	var main *Element
	for i := range cfg.Elements {
		if cfg.Elements[i].Name == "main" {
			main = &cfg.Elements[i]
		}
	}
	if main == nil || !main.Cove {
		t.Fatal("main element must have a cove")
	}
	loop := main.Loop()
	// Count reflex (concave) corners of the clockwise loop: for a CW loop
	// a reflex corner makes a strict left turn.
	reflex := 0
	pts := loop.Points
	n := len(pts)
	for i := 0; i < n; i++ {
		a, b, c := pts[(i+n-1)%n], pts[i], pts[(i+1)%n]
		if geom.Orient2DSign(a, b, c) > 0 {
			reflex++
		}
	}
	if reflex < 2 {
		t.Errorf("cove must create at least 2 reflex corners, found %d", reflex)
	}
}

func TestGrowthConfigurationsValidate(t *testing.T) {
	// Several resolutions must all produce valid PSLGs.
	for _, nHalf := range []int{16, 32, 64, 128} {
		if _, err := Single(NACA0012, nHalf, 30).Graph(); err != nil {
			t.Errorf("single nHalf=%d: %v", nHalf, err)
		}
	}
	for _, nHalf := range []int{24, 48, 96} {
		if _, err := ThreeElement(nHalf).Graph(); err != nil {
			t.Errorf("three-element nHalf=%d: %v", nHalf, err)
		}
	}
}

// TestByName: the command-line names resolve to their configurations at
// the requested resolution and far field, and an unknown name is refused.
func TestByName(t *testing.T) {
	for _, name := range []string{"", "naca0012", "30p30n"} {
		c, err := ByName(name, 20, 12)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		main := c.Elements[len(c.Elements)/2]
		if main.NHalf != 20 || c.FarfieldChords != 12 {
			t.Errorf("%q: main element n %d, far field %v", name, main.NHalf, c.FarfieldChords)
		}
	}
	if c, _ := ByName("30p30n", 20, 12); len(c.Elements) != 3 {
		t.Errorf("30p30n has %d elements", len(c.Elements))
	}
	if _, err := ByName("b747", 20, 12); err == nil {
		t.Error("unknown geometry accepted")
	}
}
