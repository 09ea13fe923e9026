package pslg

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pamg2d/internal/geom"
)

func square(x0, y0, s float64, name string) Loop {
	return Loop{
		Name: name,
		Points: []geom.Point{
			geom.Pt(x0, y0), geom.Pt(x0+s, y0), geom.Pt(x0+s, y0+s), geom.Pt(x0, y0+s),
		},
	}
}

func TestLoopBasics(t *testing.T) {
	l := square(0, 0, 2, "sq")
	if l.NumSegments() != 4 {
		t.Errorf("segments = %d", l.NumSegments())
	}
	if got := l.SignedArea(); got != 4 {
		t.Errorf("area = %v, want 4", got)
	}
	if !l.IsCCW() {
		t.Error("square must be CCW")
	}
	l.Reverse()
	if l.IsCCW() {
		t.Error("reversed square must be CW")
	}
	if got := l.SignedArea(); got != -4 {
		t.Errorf("reversed area = %v, want -4", got)
	}
}

func TestLoopContains(t *testing.T) {
	l := square(0, 0, 2, "sq")
	cases := []struct {
		p    geom.Point
		want bool
	}{
		{geom.Pt(1, 1), true},
		{geom.Pt(3, 1), false},
		{geom.Pt(-1, 1), false},
		{geom.Pt(1, 3), false},
		{geom.Pt(1.999, 1.999), true},
		{geom.Pt(0.001, 0.001), true},
	}
	for _, c := range cases {
		if got := l.Contains(c.p); got != c.want {
			t.Errorf("Contains(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestLoopContainsConcave(t *testing.T) {
	// L-shaped loop.
	l := Loop{Name: "L", Points: []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}}
	if !l.Contains(geom.Pt(1, 3)) {
		t.Error("(1,3) is inside the L")
	}
	if l.Contains(geom.Pt(3, 3)) {
		t.Error("(3,3) is in the notch, outside the L")
	}
	if !l.Contains(geom.Pt(3, 1)) {
		t.Error("(3,1) is inside the L")
	}
}

// TestRayCrosses pins LoopIndex's copy of the crossing rule to hand-computed
// cases, independently of Loop.Contains: the ray from p runs towards +x.
func TestRayCrosses(t *testing.T) {
	up, down := [2]geom.Point{geom.Pt(2, 0), geom.Pt(2, 2)}, [2]geom.Point{geom.Pt(2, 2), geom.Pt(2, 0)}
	cases := []struct {
		name string
		a, b geom.Point
		p    geom.Point
		want bool
	}{
		{"upward edge right of p", up[0], up[1], geom.Pt(1, 1), true},
		{"downward edge right of p", down[0], down[1], geom.Pt(1, 1), true},
		{"upward edge left of p", up[0], up[1], geom.Pt(3, 1), false},
		{"downward edge left of p", down[0], down[1], geom.Pt(3, 1), false},
		{"p on the edge", up[0], up[1], geom.Pt(2, 1), false},
		{"p above the edge", up[0], up[1], geom.Pt(1, 3), false},
		{"p below the edge", up[0], up[1], geom.Pt(1, -1), false},
		// A vertex on the ray counts for the edge it is the lower end of.
		{"ray through lower vertex, upward", up[0], up[1], geom.Pt(1, 0), true},
		{"ray through upper vertex, upward", up[0], up[1], geom.Pt(1, 2), false},
		{"ray through lower vertex, downward", down[0], down[1], geom.Pt(1, 0), true},
		{"ray through upper vertex, downward", down[0], down[1], geom.Pt(1, 2), false},
		{"horizontal edge on the ray", geom.Pt(2, 1), geom.Pt(4, 1), geom.Pt(1, 1), false},
		{"horizontal edge, p on it", geom.Pt(2, 1), geom.Pt(4, 1), geom.Pt(3, 1), false},
		{"slanted edge, p left of it", geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(1, 2), true},
		{"slanted edge, p right of it", geom.Pt(0, 0), geom.Pt(4, 4), geom.Pt(3, 2), false},
	}
	for _, c := range cases {
		if got := rayCrosses(c.a, c.b, c.p); got != c.want {
			t.Errorf("%s: rayCrosses(%v, %v, %v) = %v, want %v", c.name, c.a, c.b, c.p, got, c.want)
		}
	}
}

// TestLoopIndexSlabCount: the slab-count rule is taken, not the one-slab
// fallback, on the loops it is derived for, and a loop with a far spike
// gets its slabs where its other vertices are.
func TestLoopIndexSlabCount(t *testing.T) {
	sq := square(0, 0, 2, "sq")
	if ix := NewLoopIndex(&sq); ix.slabs != 4 {
		t.Errorf("square: %d slabs, want one per edge", ix.slabs)
	}
	// A unit circle of 256 vertices, one of them pulled up to height 100:
	// a table over the whole extent would give the circle 5 of its slabs.
	circle := Loop{Name: "spike"}
	for i := 0; i < 256; i++ {
		a := 2 * math.Pi * float64(i) / 256
		circle.Points = append(circle.Points, geom.Pt(math.Cos(a), math.Sin(a)))
	}
	circle.Points[64] = geom.Pt(0, 100)
	if ix := NewLoopIndex(&circle); ix.slabs < 128 || float64(ix.slabs)/ix.scale > 2.5 {
		t.Errorf("spike: %d slabs over a range of %.3g, want >= 128 over the circle's 2", ix.slabs, float64(ix.slabs)/ix.scale)
	}
	// 100 full-height teeth: rise ~ n*height/2 leaves a handful of slabs.
	var pts []geom.Point
	for i := 0; i < 100; i++ {
		pts = append(pts, geom.Pt(float64(i), 0), geom.Pt(float64(i)+0.5, 1))
	}
	pts = append(pts, geom.Pt(100, -1), geom.Pt(0, -1))
	comb := Loop{Name: "comb", Points: pts}
	ix := NewLoopIndex(&comb)
	if ix.slabs < 2 || ix.slabs > 8 {
		t.Errorf("comb: %d slabs, want 2..8", ix.slabs)
	}
	if got, max := len(ix.edges), maxSlabEntries*len(pts); got > max {
		t.Errorf("comb: %d registrations, want <= %d", got, max)
	}
}

func TestValidateOK(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{square(1, 1, 1, "body")},
		Farfield: square(-10, -10, 22, "farfield"),
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateTooFewPoints(t *testing.T) {
	g := &Graph{Surfaces: []Loop{{Name: "bad", Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "need >= 3") {
		t.Errorf("want too-few-points error, got %v", err)
	}
}

func TestValidateZeroLengthSegment(t *testing.T) {
	g := &Graph{Surfaces: []Loop{{Name: "bad", Points: []geom.Point{
		geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 1),
	}}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "zero length") {
		t.Errorf("want zero-length error, got %v", err)
	}
}

// TestValidateNonFinite: a graph built in code gets the same refusal
// ReadPoly gives a file, before any check that would compare the value.
func TestValidateNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		far := square(-10, -10, 22, "farfield")
		far.Points[1].X = bad
		body := square(1, 1, 1, "body")
		body.Points[2].Y = bad
		for _, c := range []struct {
			g     *Graph
			where string
		}{
			{&Graph{Surfaces: []Loop{square(1, 1, 1, "body")}, Farfield: far}, `loop "farfield" point 1`},
			{&Graph{Surfaces: []Loop{body}, Farfield: square(-10, -10, 22, "farfield")}, `loop "body" point 2`},
			{&Graph{Surfaces: []Loop{body}}, `loop "body" point 2`},
		} {
			err := c.g.Validate()
			var nf *NonFiniteError
			if !errors.As(err, &nf) || nf.Where != c.where {
				t.Errorf("%v at %s: error %v, want a *NonFiniteError there", bad, c.where, err)
			}
		}
	}
}

func TestValidateSelfIntersection(t *testing.T) {
	// A bowtie.
	g := &Graph{Surfaces: []Loop{{Name: "bowtie", Points: []geom.Point{
		geom.Pt(0, 0), geom.Pt(2, 2), geom.Pt(2, 0), geom.Pt(0, 2),
	}}}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "intersects") {
		t.Errorf("want intersection error, got %v", err)
	}
}

func TestValidateLoopLoopIntersection(t *testing.T) {
	g := &Graph{Surfaces: []Loop{
		square(0, 0, 2, "a"),
		square(1, 1, 2, "b"), // overlaps a
	}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "intersects") {
		t.Errorf("want intersection error, got %v", err)
	}
}

func TestValidateSurfaceOutsideFarfield(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{square(100, 100, 1, "body")},
		Farfield: square(-10, -10, 20, "farfield"),
	}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "far-field") {
		t.Errorf("want far-field error, got %v", err)
	}
}

func TestValidateDisjointBodies(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{
			square(0, 0, 1, "a"),
			square(3, 0, 1, "b"),
			square(0, 3, 1, "c"),
		},
		Farfield: square(-20, -20, 44, "farfield"),
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInteriorPointOf(t *testing.T) {
	l := square(0, 0, 2, "sq")
	p := InteriorPointOf(&l)
	if !l.Contains(p) {
		t.Errorf("interior point %v not inside the loop", p)
	}
	// Concave loop.
	concave := Loop{Name: "L", Points: []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}}
	p = InteriorPointOf(&concave)
	if !concave.Contains(p) {
		t.Errorf("interior point %v not inside the concave loop", p)
	}
	// Clockwise loop must also work.
	cw := square(0, 0, 2, "cw")
	cw.Reverse()
	p = InteriorPointOf(&cw)
	if !cw.Contains(p) {
		t.Errorf("interior point %v not inside the CW loop", p)
	}
}

func TestNumPoints(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{square(0, 0, 1, "a"), square(3, 0, 1, "b")},
		Farfield: square(-10, -10, 22, "f"),
	}
	if got := g.NumPoints(); got != 12 {
		t.Errorf("NumPoints = %d, want 12", got)
	}
}
