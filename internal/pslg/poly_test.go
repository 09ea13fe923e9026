package pslg

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pamg2d/internal/geom"
)

func TestPolyRoundTrip(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{
			square(1, 1, 1, "a"),
			square(4, 1, 1.5, "b"),
		},
		Farfield: square(-10, -10, 25, "farfield"),
	}
	var buf bytes.Buffer
	if err := g.WritePoly(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoly(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Surfaces) != 2 {
		t.Fatalf("surfaces = %d, want 2", len(got.Surfaces))
	}
	if len(got.Farfield.Points) != 4 {
		t.Fatalf("farfield points = %d, want 4", len(got.Farfield.Points))
	}
	if !got.Farfield.IsCCW() {
		t.Error("farfield must come back CCW")
	}
	// Point sets must round-trip exactly (%.17g).
	wantPts := map[geom.Point]bool{}
	for i := range g.Surfaces {
		for _, p := range g.Surfaces[i].Points {
			wantPts[p] = true
		}
	}
	for i := range got.Surfaces {
		for _, p := range got.Surfaces[i].Points {
			if !wantPts[p] {
				t.Fatalf("unexpected surface point %v", p)
			}
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// One multi-element text must parse to one graph: consumers hash it
// (meshd's cache key) and mesh its surfaces in order.
func TestReadPolyDeterministic(t *testing.T) {
	g := &Graph{
		Surfaces: []Loop{
			square(1, 1, 1, "a"),
			square(4, 1, 1.5, "b"),
			square(7, 1, 0.5, "c"),
		},
		Farfield: square(-10, -10, 25, "farfield"),
	}
	var buf bytes.Buffer
	if err := g.WritePoly(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	want, err := ReadPoly(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Surfaces) != 3 {
		t.Fatalf("surfaces = %d, want 3", len(want.Surfaces))
	}
	for i := 1; i < 32; i++ {
		got, err := ReadPoly(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("parse %d of the same text gave a different graph", i)
		}
	}
}

func TestPolyRoundTripNoFarfield(t *testing.T) {
	g := &Graph{Surfaces: []Loop{square(0, 0, 1, "only")}}
	var buf bytes.Buffer
	if err := g.WritePoly(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPoly(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A single loop encloses nothing else, so it stays a surface.
	if len(got.Surfaces) != 1 || len(got.Farfield.Points) != 0 {
		t.Fatalf("surfaces=%d farfield=%d", len(got.Surfaces), len(got.Farfield.Points))
	}
}

// crossingLoops holds a square and a triangle that crosses it, each
// holding the other's first point: listed square first, the square would
// be the far field, and WritePoly, which lists the far field last, would
// turn it into a surface.
const crossingLoops = `7 2 0 0
0 0 0
1 4 0
2 4 4
3 0 4
4 1 1
5 -2 1
6 1 -2
7 1
0 0 1 1
1 1 2 1
2 2 3 1
3 3 0 1
4 4 5 2
5 5 6 2
6 6 4 2
`

func TestReadPolyErrors(t *testing.T) {
	cases := []struct{ name, data string }{
		{"empty", ""},
		{"bad dim", "1 3 0 0\n0 1 2\n"},
		{"unknown vertex in segment", "2 2 0 0\n0 0 0\n1 1 0\n1 1\n0 0 5 1\n"},
		{"open chain", "3 2 0 0\n0 0 0\n1 1 0\n2 1 1\n2 1\n0 0 1 1\n1 1 2 1\n"},
		{"double start", "3 2 0 0\n0 0 0\n1 1 0\n2 1 1\n2 1\n0 0 1 1\n1 0 2 1\n"},
		{"loop enclosing no area", "2 2 0 0\n0 0 0\n1 1 0\n2 1\n0 0 1 1\n1 1 0 1\n"},
		{"two loops each enclosing the other", crossingLoops},
		{"line over the 1 MiB cap", paddedTriangle(1 << 20)},
		{"bad segment number", "3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n3 1\nx 0 1 1\n1 1 2 1\n2 2 0 1\n"},
		{"bad segment marker", "3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n3 1\n0 0 1 a\n1 1 2 a\n2 2 0 a\n"},
	}
	for _, c := range cases {
		if _, err := ReadPoly(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s: want error", c.name)
		} else if strings.HasPrefix(c.name, "bad segment") && !strings.Contains(err.Error(), "segment 0") {
			t.Errorf("%s: %v, want an error naming segment 0", c.name, err)
		}
	}
}

// paddedTriangle is a valid .poly triangle whose first vertex line is
// padded with spaces to n bytes.
func paddedTriangle(n int) string {
	const first = "0 0 0"
	return "3 2 0 0\n" + first + strings.Repeat(" ", n-len(first)) + "\n1 1 0\n2 0 1\n3 1\n0 0 1 1\n1 1 2 1\n2 2 0 1\n"
}

// TestReadPolyLineCap: the longest line ReadPoly accepts is one byte
// short of 1 MiB, its newline filling the scanner's buffer; one byte more
// fails (TestReadPolyErrors).
func TestReadPolyLineCap(t *testing.T) {
	if _, err := ReadPoly(strings.NewReader(paddedTriangle(1<<20 - 1))); err != nil {
		t.Errorf("a line of 1 MiB - 1 bytes: %v", err)
	}
}

// TestReadPolyRejectsNegativeCounts: a negative vertex or segment count is
// an error, not a makeslice panic.
func TestReadPolyRejectsNegativeCounts(t *testing.T) {
	for _, data := range []string{
		"-1 2 0 0\n",
		"3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n-1 1\n",
	} {
		if g, err := ReadPoly(strings.NewReader(data)); err == nil {
			t.Errorf("%q: read %+v, want an error", data, g)
		}
	}
}

// FuzzReadPoly: ReadPoly never panics, and a graph it reads writes and
// reads back to the same loops, point for point and bit for bit. Loop
// names are not compared there: the format carries markers, not names,
// and WritePoly numbers its loops afresh. A graph ReadPoly reads is also
// the one the fmt reference reads, names included, from the same text
// without its '#' lines.
func FuzzReadPoly(f *testing.F) {
	for _, g := range []*Graph{
		{Surfaces: []Loop{square(1, 1, 1, "a"), square(4, 1, 1.5, "b")}, Farfield: square(-10, -10, 25, "farfield")},
		{Surfaces: []Loop{square(0, 0, 1, "only")}},
		{Surfaces: []Loop{circle(0, 0, 1e-300, 5), circle(3, 0, 0.5, 7)}, Farfield: circle(0, 0, 1e300, 4)},
	} {
		var buf bytes.Buffer
		if err := g.WritePoly(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("-1 2 0 0\n")
	f.Add("3 2 0 0\n0 0 0\n1 1 0\n2 0 1\n-1 1\n")
	f.Add("1000000000 2 0 0\n0 0 0\n")
	f.Add(crossingLoops)
	f.Add("3 2 0 0\n0 0x1p-2 0\n1 1 0\n2 0 1\n# c\n3 1\n0 0 1 +1\n1 1 2 1 9\n2 2 0 1\n")
	f.Add("3 2 0 0\n0 1.5p3 0\n1 1 0\n2 0 1\n3 1\n0 0 1 01\n1 1 2 1\n2 2 0 1\n")
	f.Fuzz(func(t *testing.T, data string) {
		g, err := ReadPoly(strings.NewReader(data))
		if err != nil {
			return
		}
		ref, err := referenceReadPoly(strings.NewReader(withoutComments(data)))
		if err != nil {
			t.Fatalf("ReadPoly reads %q, the fmt reference refuses it: %v", data, err)
		}
		if d := loopsDiff(g, ref); d != "" || !sameNames(g, ref) {
			t.Fatalf("ReadPoly and the fmt reference read %q differently: %s", data, d)
		}
		var buf bytes.Buffer
		if err := g.WritePoly(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadPoly(&buf)
		if err != nil {
			t.Fatalf("a graph read from %q does not read back: %v", data, err)
		}
		if d := loopsDiff(g, back); d != "" {
			t.Fatalf("a graph read from %q reads back different: %s", data, d)
		}
	})
}

// loopsDiff names the first difference between two graphs' loops, or
// returns "".
func loopsDiff(a, b *Graph) string {
	if len(a.Surfaces) != len(b.Surfaces) {
		return fmt.Sprintf("%d surfaces, then %d", len(a.Surfaces), len(b.Surfaces))
	}
	for i := range a.Surfaces {
		if !samePoints(a.Surfaces[i].Points, b.Surfaces[i].Points) {
			return fmt.Sprintf("surface %d: %v, then %v", i, a.Surfaces[i].Points, b.Surfaces[i].Points)
		}
	}
	if !samePoints(a.Farfield.Points, b.Farfield.Points) {
		return fmt.Sprintf("far field %v, then %v", a.Farfield.Points, b.Farfield.Points)
	}
	return ""
}

// sameNames reports whether two graphs name their loops alike.
func sameNames(a, b *Graph) bool {
	if a.Farfield.Name != b.Farfield.Name || len(a.Surfaces) != len(b.Surfaces) {
		return false
	}
	for i := range a.Surfaces {
		if a.Surfaces[i].Name != b.Surfaces[i].Name {
			return false
		}
	}
	return true
}

// samePoints compares two point lists bit for bit.
func samePoints(p, q []geom.Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if math.Float64bits(p[i].X) != math.Float64bits(q[i].X) || math.Float64bits(p[i].Y) != math.Float64bits(q[i].Y) {
			return false
		}
	}
	return true
}

// TestReadPolyRejectsNonFinite: "nan" and "inf" scan as float64, and a
// graph holding one hung the pipeline (a far-field vertex at infinity sent
// decouple.MarchBorder marching for ever) or came out as a mesh with a NaN
// vertex. The reader names the vertex in a typed error instead.
func TestReadPolyRejectsNonFinite(t *testing.T) {
	const text = `8 2 0 1
0 1 1 1
1 %s %s 1
2 2 2 1
3 1 2 1
4 -10 -10 2
5 %s %s 2
6 10 10 2
7 -10 10 2
8 1
0 0 1 1
1 1 2 1
2 2 3 1
3 3 0 1
4 4 5 2
5 5 6 2
6 6 7 2
7 7 4 2
1
0 1.5 1.5
`
	if _, err := ReadPoly(strings.NewReader(fmt.Sprintf(text, "2", "1", "10", "-10"))); err != nil {
		t.Fatalf("finite control: %v", err)
	}
	for _, tok := range []string{"nan", "inf", "-inf", "+Inf"} {
		for _, c := range []struct {
			name   string
			coords [4]string
			vertex string
		}{
			{"surface x", [4]string{tok, "1", "10", "-10"}, "vertex 1 "},
			{"surface y", [4]string{"2", tok, "10", "-10"}, "vertex 1 "},
			{"far-field x", [4]string{"2", "1", tok, "-10"}, "vertex 5 "},
			{"far-field y", [4]string{"2", "1", "10", tok}, "vertex 5 "},
		} {
			_, err := ReadPoly(strings.NewReader(fmt.Sprintf(text, c.coords[0], c.coords[1], c.coords[2], c.coords[3])))
			var nf *NonFiniteError
			if !errors.As(err, &nf) || !strings.Contains(err.Error(), c.vertex) {
				t.Errorf("%s = %s: error %v, want a *NonFiniteError naming %s", c.name, tok, err, c.vertex)
			}
		}
	}
}

func TestReadPolyCWLoopNormalized(t *testing.T) {
	// A clockwise input loop must come back CCW.
	data := `4 2 0 0
0 0 0
1 0 1
2 1 1
3 1 0
4 1
0 0 1 1
1 1 2 1
2 2 3 1
3 3 0 1
`
	g, err := ReadPoly(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Surfaces) != 1 {
		t.Fatalf("surfaces = %d", len(g.Surfaces))
	}
	if !g.Surfaces[0].IsCCW() {
		t.Error("loop must be normalized to CCW")
	}
}

func TestReadPolyComments(t *testing.T) {
	data := `# a comment
3 2 0 0
# vertices
0 0 0
1 1 0
2 0 1
3 1
0 0 1 1
1 1 2 1
2 2 0 1
`
	g, err := ReadPoly(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Surfaces) != 1 || len(g.Surfaces[0].Points) != 3 {
		t.Fatalf("parsed %+v", g)
	}
}

// TestReadPolyAllocatesWhatTheInputHolds: reading a small .poly costs
// kilobytes, not the 1 MiB line cap.
func TestReadPolyAllocatesWhatTheInputHolds(t *testing.T) {
	var text bytes.Buffer
	g := &Graph{Surfaces: []Loop{square(0, 0, 1, "a")}, Farfield: square(-10, -10, 25, "farfield")}
	if err := g.WritePoly(&text); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const reads = 10
	for range reads {
		if _, err := ReadPoly(strings.NewReader(text.String())); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / reads; got > 64<<10 {
		t.Errorf("reading %d bytes of .poly allocated %d bytes", text.Len(), got)
	}
	// A loop four times as long costs a few allocations more, not a few
	// per vertex.
	allocs := func(n int) float64 {
		var buf bytes.Buffer
		g := &Graph{Surfaces: []Loop{circle(0, 0, 1, n)}, Farfield: square(-10, -10, 25, "farfield")}
		if err := g.WritePoly(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadPoly(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(120), allocs(480); long > short+8 {
		t.Errorf("%v allocations reading a loop of 120 vertices, %v reading 480", short, long)
	}
}
