package mesh

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"pamg2d/internal/geom"
)

// gridMesh is an n x n square grid split into 2n² CCW triangles.
func gridMesh(n int) *Mesh {
	m := &Mesh{}
	for j := 0; j <= n; j++ {
		for i := 0; i <= n; i++ {
			m.Points = append(m.Points, geom.Pt(float64(i), float64(j)))
		}
	}
	at := func(i, j int) int32 { return int32(j*(n+1) + i) }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			m.Triangles = append(m.Triangles,
				[3]int32{at(i, j), at(i+1, j), at(i+1, j+1)},
				[3]int32{at(i, j), at(i+1, j+1), at(i, j+1)})
		}
	}
	return m
}

// fanMesh is n CCW triangles around one hub vertex of degree n.
func fanMesh(n int) *Mesh {
	m := &Mesh{Points: []geom.Point{geom.Pt(0, 0)}}
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		m.Points = append(m.Points, geom.Pt(math.Cos(a), math.Sin(a)))
	}
	for i := 0; i < n; i++ {
		m.Triangles = append(m.Triangles, [3]int32{0, int32(1 + i), int32(1 + (i+1)%n)})
	}
	return m
}

func TestAuditTable(t *testing.T) {
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1), geom.Pt(0.5, -1), geom.Pt(2, 0)}
	cases := []struct {
		name string
		tris [][3]int32
		ok   bool
	}{
		{"two CCW triangles", [][3]int32{{0, 1, 2}, {0, 2, 3}}, true},
		{"CW triangle", [][3]int32{{0, 1, 2}, {0, 3, 2}}, false},
		{"zero-area triangle", [][3]int32{{0, 1, 2}, {0, 1, 5}}, false},
		{"repeated vertex", [][3]int32{{0, 1, 1}}, false},
		{"directed edge used twice", [][3]int32{{0, 1, 2}, {0, 1, 3}}, false},
		{"the same triangle twice", [][3]int32{{0, 1, 2}, {1, 2, 0}}, false},
		{"three triangles on one edge", [][3]int32{{0, 1, 2}, {1, 0, 4}, {0, 1, 3}}, false},
		{"vertex out of range", [][3]int32{{0, 1, 6}}, false},
		{"negative vertex", [][3]int32{{0, 1, -1}}, false},
		{"no triangles", nil, true},
	}
	for _, c := range cases {
		err := (&Mesh{Points: sq, Triangles: c.tris}).Audit()
		if (err == nil) != c.ok {
			t.Errorf("%s: Audit returned %v", c.name, err)
		}
	}
}

// TestEdgeTableOnAFan: a vertex of degree 20 000 costs the edge table
// nothing special — the audit passes and all three readers allocate the
// same few blocks as on a mesh a hundred times smaller.
func TestEdgeTableOnAFan(t *testing.T) {
	small, big := fanMesh(200), fanMesh(20000)
	if err := big.Audit(); err != nil {
		t.Fatalf("clean fan failed the audit: %v", err)
	}
	if got := len(big.BoundaryEdges()); got != 20000 {
		t.Errorf("fan has %d boundary edges, want 20000", got)
	}
	for i, a := range big.Adjacency() {
		n := int32(len(big.Triangles))
		if want := [3]int32{(int32(i) + n - 1) % n, -1, (int32(i) + 1) % n}; a != want {
			t.Fatalf("fan triangle %d: neighbours %v, want %v", i, a, want)
		}
	}
	readers := map[string]func(*Mesh){
		"Audit":     func(m *Mesh) { _ = m.Audit() },
		"Adjacency": func(m *Mesh) { m.Adjacency() },
	}
	for name, read := range readers {
		atSmall := testing.AllocsPerRun(5, func() { read(small) })
		atBig := testing.AllocsPerRun(5, func() { read(big) })
		if atBig > atSmall || atBig > 3 {
			t.Errorf("%s: %v allocations on the 20000-fan, %v on the 200-fan; want the same, at most 3", name, atBig, atSmall)
		}
	}
}

// boundaryEdgesByMap and adjacencyByMap are the map-based implementations
// the edge table replaced, kept as the reference.
func boundaryEdgesByMap(m *Mesh) [][2]int32 {
	present := make(map[[2]int32]bool)
	for _, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			present[[2]int32{t[e], t[(e+1)%3]}] = true
		}
	}
	var out [][2]int32
	for e := range present {
		if !present[[2]int32{e[1], e[0]}] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

func adjacencyByMap(m *Mesh) [][3]int32 {
	owner := make(map[[2]int32]int32)
	for i, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			owner[[2]int32{t[e], t[(e+1)%3]}] = int32(i)
		}
	}
	adj := make([][3]int32, len(m.Triangles))
	for i, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			adj[i][e] = -1
			if nb, ok := owner[[2]int32{t[(e+1)%3], t[e]}]; ok {
				adj[i][e] = nb
			}
		}
	}
	return adj
}

// TestEdgeTableMatchesMaps: BoundaryEdges and Adjacency answer exactly as
// the map-based implementations did, on clean meshes and on index soup
// with repeated directed edges, repeated triangles and degenerate
// triangles.
func TestEdgeTableMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	meshes := []*Mesh{unitSquareMesh(), gridMesh(12), fanMesh(50), randomMesh(300), {}}
	for k := 0; k < 50; k++ {
		np := 3 + rng.Intn(12)
		m := &Mesh{Points: make([]geom.Point, np)}
		for i := 0; i < 1+rng.Intn(40); i++ {
			m.Triangles = append(m.Triangles, [3]int32{int32(rng.Intn(np)), int32(rng.Intn(np)), int32(rng.Intn(np))})
		}
		meshes = append(meshes, m)
	}
	for k, m := range meshes {
		if got, want := m.BoundaryEdges(), boundaryEdgesByMap(m); !reflect.DeepEqual(got, want) {
			t.Errorf("mesh %d: BoundaryEdges = %v, the map gives %v", k, got, want)
		}
		if got, want := m.Adjacency(), adjacencyByMap(m); !reflect.DeepEqual(got, want) {
			t.Errorf("mesh %d: Adjacency = %v, the map gives %v", k, got, want)
		}
	}
}

// TestAdjacencySkipsInvalidTriangles: the invariant audit calls Adjacency
// on corrupted meshes before its orientation check reports them.
func TestAdjacencySkipsInvalidTriangles(t *testing.T) {
	m := unitSquareMesh()
	m.Triangles = append(m.Triangles, [3]int32{0, 1, 99}, [3]int32{-5, 2, 3})
	adj := m.Adjacency()
	if want := adjacencyByMap(unitSquareMesh()); !reflect.DeepEqual(adj[:2], want) {
		t.Errorf("valid triangles: neighbours %v, want %v", adj[:2], want)
	}
	for _, a := range adj[2:] {
		if a != [3]int32{-1, -1, -1} {
			t.Errorf("a triangle with a vertex out of range has neighbours %v", a)
		}
	}
	if got := len(m.BoundaryEdges()); got != 4 {
		t.Errorf("boundary edges = %d, want the square's 4", got)
	}
}

func BenchmarkEdgeTable(b *testing.B) {
	m := gridMesh(310) // 192k triangles, the size of bench's naca-inviscid mesh
	readers := []struct {
		name string
		read func()
	}{
		{"Audit", func() { _ = m.Audit() }},
		{"BoundaryEdges", func() { m.BoundaryEdges() }},
		{"Adjacency", func() { m.Adjacency() }},
	}
	for _, r := range readers {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.read()
			}
		})
	}
}
