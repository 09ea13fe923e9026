package clip

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pamg2d/internal/geom"
)

var box = geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}

func TestOutcode(t *testing.T) {
	cases := []struct {
		p    geom.Point
		want int
	}{
		{geom.Pt(5, 5), Inside},
		{geom.Pt(-1, 5), Left},
		{geom.Pt(11, 5), Right},
		{geom.Pt(5, -1), Bottom},
		{geom.Pt(5, 11), Top},
		{geom.Pt(-1, -1), Left | Bottom},
		{geom.Pt(11, 11), Right | Top},
		{geom.Pt(-1, 11), Left | Top},
		{geom.Pt(11, -1), Right | Bottom},
		{geom.Pt(0, 0), Inside},   // on corner
		{geom.Pt(10, 10), Inside}, // on corner
	}
	for _, c := range cases {
		if got := Outcode(c.p, box); got != c.want {
			t.Errorf("Outcode(%v) = %b, want %b", c.p, got, c.want)
		}
	}
}

func TestClipSegmentAccepted(t *testing.T) {
	s := geom.Segment{A: geom.Pt(1, 1), B: geom.Pt(9, 9)}
	p0, p1, ok := ClipSegment(s, box)
	if !ok || p0 != s.A || p1 != s.B {
		t.Errorf("fully-inside segment must be unchanged: %v %v %v", p0, p1, ok)
	}
}

func TestClipSegmentRejected(t *testing.T) {
	cases := []geom.Segment{
		{A: geom.Pt(-5, -5), B: geom.Pt(-1, -1)},   // all left-bottom
		{A: geom.Pt(11, 0), B: geom.Pt(12, 10)},    // all right
		{A: geom.Pt(0, 11), B: geom.Pt(10, 12)},    // all top
		{A: geom.Pt(-1, 5), B: geom.Pt(1, 30)},     // steep diagonal miss
		{A: geom.Pt(9, 11.6), B: geom.Pt(11.6, 9)}, // corner miss (x+y=20.6 > 20)
	}
	for _, s := range cases {
		if _, _, ok := ClipSegment(s, box); ok {
			t.Errorf("segment %v must be rejected", s)
		}
	}
}

func TestClipSegmentCrossing(t *testing.T) {
	s := geom.Segment{A: geom.Pt(-5, 5), B: geom.Pt(15, 5)}
	p0, p1, ok := ClipSegment(s, box)
	if !ok {
		t.Fatal("crossing segment must be accepted")
	}
	if p0 != (geom.Pt(0, 5)) || p1 != (geom.Pt(10, 5)) {
		t.Errorf("clip: got %v %v", p0, p1)
	}
}

func TestClipSegmentDiagonalThroughCorner(t *testing.T) {
	s := geom.Segment{A: geom.Pt(-5, -5), B: geom.Pt(15, 15)}
	p0, p1, ok := ClipSegment(s, box)
	if !ok {
		t.Fatal("diagonal through box must be accepted")
	}
	if p0.Dist(geom.Pt(0, 0)) > 1e-12 || p1.Dist(geom.Pt(10, 10)) > 1e-12 {
		t.Errorf("clip: got %v %v", p0, p1)
	}
}

func TestClipSegmentOneEndpointInside(t *testing.T) {
	s := geom.Segment{A: geom.Pt(5, 5), B: geom.Pt(5, 20)}
	p0, p1, ok := ClipSegment(s, box)
	if !ok {
		t.Fatal("must be accepted")
	}
	if p0 != (geom.Pt(5, 5)) || p1 != (geom.Pt(5, 10)) {
		t.Errorf("clip: got %v %v", p0, p1)
	}
}

func TestClipDegenerateSegment(t *testing.T) {
	// Zero-length segments.
	if _, _, ok := ClipSegment(geom.Segment{A: geom.Pt(5, 5), B: geom.Pt(5, 5)}, box); !ok {
		t.Error("point inside the box must be accepted")
	}
	if _, _, ok := ClipSegment(geom.Segment{A: geom.Pt(15, 5), B: geom.Pt(15, 5)}, box); ok {
		t.Error("point outside the box must be rejected")
	}
}

func TestClipGrazingEdge(t *testing.T) {
	// Segment along the box's top edge: boundaries count as intersecting.
	s := geom.Segment{A: geom.Pt(-5, 10), B: geom.Pt(15, 10)}
	if !SegmentIntersectsBox(s, box) {
		t.Error("segment along the boundary must intersect")
	}
}

// Property: agreement with an exact intersection test built from the robust
// predicates. Cohen–Sutherland is used as a conservative prefilter, so we
// check it never misses a true intersection.
func TestClipNeverMissesIntersection(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		clamp := func(v float64) float64 { return math.Mod(v, 30) - 10 }
		s := geom.Segment{
			A: geom.Pt(clamp(ax), clamp(ay)),
			B: geom.Pt(clamp(bx), clamp(by)),
		}
		truth := exactSegBox(s, box)
		cs := SegmentIntersectsBox(s, box)
		// cs must be true whenever truth is true.
		return !truth || cs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// exactSegBox decides segment-box intersection exactly: either an endpoint
// is inside, or the segment crosses one of the four box edges.
func exactSegBox(s geom.Segment, b geom.BBox) bool {
	if b.Contains(s.A) || b.Contains(s.B) {
		return true
	}
	corners := []geom.Point{
		geom.Pt(b.Min.X, b.Min.Y), geom.Pt(b.Max.X, b.Min.Y),
		geom.Pt(b.Max.X, b.Max.Y), geom.Pt(b.Min.X, b.Max.Y),
	}
	for i := 0; i < 4; i++ {
		edge := geom.Segment{A: corners[i], B: corners[(i+1)%4]}
		if geom.SegmentsIntersect(s, edge) != geom.SegDisjoint {
			return true
		}
	}
	return false
}

func BenchmarkClipSegment(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	segs := make([]geom.Segment, 1024)
	for i := range segs {
		segs[i] = geom.Segment{
			A: geom.Pt(rng.Float64()*30-10, rng.Float64()*30-10),
			B: geom.Pt(rng.Float64()*30-10, rng.Float64()*30-10),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ClipSegment(segs[i%len(segs)], box)
	}
}
