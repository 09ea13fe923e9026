package mesh

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pamg2d/internal/geom"
)

func unitSquareMesh() *Mesh {
	b := NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1))
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0, 1))
	return b.Mesh()
}

func TestBuilderDedup(t *testing.T) {
	m := unitSquareMesh()
	if m.NumPoints() != 4 {
		t.Errorf("points = %d, want 4 (shared corners deduplicated)", m.NumPoints())
	}
	if m.NumTriangles() != 2 {
		t.Errorf("triangles = %d", m.NumTriangles())
	}
}

func TestBuilderDropsDuplicatesAndDegenerate(t *testing.T) {
	b := NewBuilder()
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1))
	b.AddTriangle(geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 0)) // same triangle rotated
	b.AddTriangle(geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(1, 1)) // degenerate
	if got := b.Mesh().NumTriangles(); got != 1 {
		t.Errorf("triangles = %d, want 1", got)
	}
}

func TestAuditOK(t *testing.T) {
	if err := unitSquareMesh().Audit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCatchesCW(t *testing.T) {
	m := &Mesh{
		Points:    []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1)},
		Triangles: [][3]int32{{0, 2, 1}},
	}
	if err := m.Audit(); err == nil {
		t.Error("CW triangle must fail the audit")
	}
}

func TestAuditCatchesOverlap(t *testing.T) {
	m := &Mesh{
		Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)},
		Triangles: [][3]int32{
			{0, 1, 2},
			{0, 1, 3}, // shares directed edge (0,1): overlapping
		},
	}
	if err := m.Audit(); err == nil {
		t.Error("overlapping triangles must fail the audit")
	}
}

func TestBoundaryEdges(t *testing.T) {
	m := unitSquareMesh()
	be := m.BoundaryEdges()
	if len(be) != 4 {
		t.Fatalf("boundary edges = %d, want 4", len(be))
	}
}

func TestAreaAndQuality(t *testing.T) {
	m := unitSquareMesh()
	if got := m.Area(); math.Abs(got-1) > 1e-12 {
		t.Errorf("area = %v, want 1", got)
	}
	q := m.Quality()
	if q.TriangleCount != 2 {
		t.Error("count")
	}
	// Right isoceles triangles: min angle 45, max 90.
	if math.Abs(q.MinAngleDeg-45) > 1e-9 || math.Abs(q.MaxAngleDeg-90) > 1e-9 {
		t.Errorf("angles: min %v max %v", q.MinAngleDeg, q.MaxAngleDeg)
	}
	if q.AngleHistogram[4] != 2 {
		t.Errorf("histogram: %v", q.AngleHistogram)
	}
	if math.Abs(q.MeanArea-0.5) > 1e-12 || q.MinArea != q.MaxArea {
		t.Errorf("areas: mean %v min %v max %v", q.MeanArea, q.MinArea, q.MaxArea)
	}
}

func randomMesh(n int) *Mesh {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder()
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*100, rng.Float64()*100
		b.AddTriangle(geom.Pt(x, y), geom.Pt(x+1, y), geom.Pt(x, y+1))
	}
	return b.Mesh()
}

// TestBinaryRoundTrip: 15,000 points and 5,000 triangles, so both arrays
// are read in more than one chunk of fileio.MaxPrealloc records.
func TestBinaryRoundTrip(t *testing.T) {
	m := randomMesh(5000)
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != m.NumPoints() || got.NumTriangles() != m.NumTriangles() {
		t.Fatalf("round trip size mismatch")
	}
	for i := range m.Points {
		if got.Points[i] != m.Points[i] {
			t.Fatalf("point %d: %v != %v", i, got.Points[i], m.Points[i])
		}
	}
	for i := range m.Triangles {
		if got.Triangles[i] != m.Triangles[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("bad magic must fail")
	}
}

func TestWriteASCIIFormat(t *testing.T) {
	m := unitSquareMesh()
	var buf bytes.Buffer
	if err := m.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if len(out) == 0 || out[0] != '4' {
		t.Errorf("ASCII output must start with the node count: %q", out[:20])
	}
}

func TestBinarySmallerThanASCII(t *testing.T) {
	m := randomMesh(2000)
	var a, b bytes.Buffer
	if err := m.WriteASCII(&a); err != nil {
		t.Fatal(err)
	}
	if err := m.WriteBinary(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() >= a.Len() {
		t.Errorf("binary (%d bytes) not smaller than ASCII (%d bytes)", b.Len(), a.Len())
	}
}

func BenchmarkWriteASCII(b *testing.B) {
	m := randomMesh(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteASCII(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	m := randomMesh(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: the builder is idempotent — re-adding a mesh's own triangles
// changes nothing.
func TestBuilderIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		for i := 0; i < 50; i++ {
			x, y := rng.Float64()*10, rng.Float64()*10
			b.AddTriangle(geom.Pt(x, y), geom.Pt(x+1, y), geom.Pt(x, y+1))
		}
		m1 := b.Mesh()
		np, nt := m1.NumPoints(), m1.NumTriangles()
		for _, tr := range append([][3]int32{}, m1.Triangles...) {
			b.AddTriangle(m1.Points[tr[0]], m1.Points[tr[1]], m1.Points[tr[2]])
		}
		return m1.NumPoints() == np && m1.NumTriangles() == nt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdjacency(t *testing.T) {
	m := unitSquareMesh()
	adj := m.Adjacency()
	if len(adj) != 2 {
		t.Fatalf("adjacency size %d", len(adj))
	}
	// Each triangle has exactly one interior neighbor (the shared
	// diagonal) and two boundary edges.
	for i, a := range adj {
		interior := 0
		for _, nb := range a {
			if nb >= 0 {
				interior++
				if nb == int32(i) {
					t.Fatal("self adjacency")
				}
			}
		}
		if interior != 1 {
			t.Errorf("triangle %d has %d interior edges, want 1", i, interior)
		}
	}
}

// localSubmesh numbers tris' corners in order of first appearance and
// lists those that isShared accepts: the form a meshing task returns.
func localSubmesh(m *Mesh, tris [][3]int32, isShared func(geom.Point) bool) (pts []geom.Point, shared []int32, local [][3]int32) {
	remap := map[int32]int32{}
	for _, t := range tris {
		var lt [3]int32
		for k, v := range t {
			if _, ok := remap[v]; !ok {
				remap[v] = int32(len(pts))
				if isShared(m.Points[v]) {
					shared = append(shared, int32(len(pts)))
				}
				pts = append(pts, m.Points[v])
			}
			lt[k] = remap[v]
		}
		local = append(local, lt)
	}
	return pts, shared, local
}

// TestAddSubmeshMatchesAddTriangle: a grid cut into four quadrants, each
// handed over as an indexed submesh with only the cut lines flagged
// shared — one triangle made by two quadrants, one degenerate — assembles
// into the mesh AddTriangle builds from the same triangles, element for
// element.
func TestAddSubmeshMatchesAddTriangle(t *testing.T) {
	const n = 8
	g := gridMesh(n)
	onCut := func(p geom.Point) bool { return p.X == n/2 || p.Y == n/2 }
	quadrants := make([][][3]int32, 4)
	for _, tr := range g.Triangles {
		cx := (g.Points[tr[0]].X + g.Points[tr[1]].X + g.Points[tr[2]].X) / 3
		cy := (g.Points[tr[0]].Y + g.Points[tr[1]].Y + g.Points[tr[2]].Y) / 3
		q := 0
		if cx > n/2 {
			q++
		}
		if cy > n/2 {
			q += 2
		}
		quadrants[q] = append(quadrants[q], tr)
	}
	// A triangle with all three corners on the cuts, made by two
	// quadrants, and a triangle that collapses to an edge.
	at := func(i, j int) int32 { return int32(j*(n+1) + i) }
	both := [3]int32{at(n/2, n/2), at(n/2+1, n/2), at(n/2, n/2+1)}
	quadrants[0] = append(quadrants[0], both)
	quadrants[3] = append(quadrants[3], both, [3]int32{at(n, n), at(n, n), at(n-1, n)})

	want, got := NewBuilder(), NewBuilder()
	for _, q := range quadrants {
		for _, tr := range q {
			want.AddTriangle(g.Points[tr[0]], g.Points[tr[1]], g.Points[tr[2]])
		}
		got.AddSubmesh(localSubmesh(g, q, onCut))
	}
	if nt := want.Mesh().NumTriangles(); nt != 2*n*n+1 {
		t.Fatalf("reference holds %d triangles, want %d: the duplicate or the degenerate one got in", nt, 2*n*n+1)
	}
	if !reflect.DeepEqual(got.Mesh().Points, want.Mesh().Points) {
		t.Error("points differ from the AddTriangle mesh")
	}
	if !reflect.DeepEqual(got.Mesh().Triangles, want.Mesh().Triangles) {
		t.Error("triangles differ from the AddTriangle mesh")
	}
}

// TestShareMatchesAddTriangle: a grid's left half is added with no point
// shared; Share then declares the cut line and the corners of one left
// triangle, and the right half arrives with those points flagged and that
// triangle repeated. The assembly is the mesh AddTriangle builds from the
// same triangles, element for element: the declared points are found by
// coordinates and the repeated triangle is dropped.
func TestShareMatchesAddTriangle(t *testing.T) {
	const n = 4
	g := gridMesh(n)
	var left, right [][3]int32
	for _, tr := range g.Triangles {
		if g.Points[tr[0]].X+g.Points[tr[1]].X+g.Points[tr[2]].X < 3*n/2 {
			left = append(left, tr)
		} else {
			right = append(right, tr)
		}
	}
	repeat := left[len(left)/2]
	right = append(right, repeat)
	declared := func(p geom.Point) bool {
		return p.X == n/2 || p == g.Points[repeat[0]] || p == g.Points[repeat[1]] || p == g.Points[repeat[2]]
	}

	want, got := NewBuilder(), NewBuilder()
	for _, tr := range append(append([][3]int32{}, left...), right...) {
		want.AddTriangle(g.Points[tr[0]], g.Points[tr[1]], g.Points[tr[2]])
	}
	got.AddSubmesh(localSubmesh(g, left, func(geom.Point) bool { return false }))
	var idx []int32
	for i, p := range got.Mesh().Points {
		if declared(p) {
			idx = append(idx, int32(i))
		}
	}
	got.Share(idx)
	got.AddSubmesh(localSubmesh(g, right, declared))

	if nt := want.Mesh().NumTriangles(); nt != 2*n*n {
		t.Fatalf("reference holds %d triangles, want %d: the repeated one got in", nt, 2*n*n)
	}
	if !reflect.DeepEqual(got.Mesh().Points, want.Mesh().Points) {
		t.Errorf("%d points, AddTriangle gives %d or another order", got.Mesh().NumPoints(), want.Mesh().NumPoints())
	}
	if !reflect.DeepEqual(got.Mesh().Triangles, want.Mesh().Triangles) {
		t.Errorf("%d triangles, AddTriangle gives %d or other indices", got.Mesh().NumTriangles(), want.Mesh().NumTriangles())
	}
}
