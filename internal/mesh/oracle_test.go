package mesh_test

import (
	"fmt"
	"math/rand"
	"testing"

	"pamg2d/internal/audit"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// grid is an n x n square grid split into 2n² CCW triangles.
func grid(n int) *mesh.Mesh {
	b := mesh.NewBuilder()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			x, y := float64(i), float64(j)
			b.AddTriangle(geom.Pt(x, y), geom.Pt(x+1, y), geom.Pt(x+1, y+1))
			b.AddTriangle(geom.Pt(x, y), geom.Pt(x+1, y+1), geom.Pt(x, y+1))
		}
	}
	return b.Mesh()
}

// gridN is the side of the grid the corruptions below apply to.
const gridN = 6

// gridCorruptions are seeded corruptions of grid(gridN), and whether the
// mesh stays structurally clean under each.
var gridCorruptions = []struct {
	name  string
	clean bool
	apply func(m *mesh.Mesh, rng *rand.Rand)
}{
	{"none", true, func(*mesh.Mesh, *rand.Rand) {}},
	{"interior triangle removed", true, func(m *mesh.Mesh, rng *rand.Rand) {
		// Cells off the rim, so no point is orphaned.
		k := 2 * ((1+rng.Intn(gridN-2))*gridN + 1 + rng.Intn(gridN-2))
		m.Triangles = append(m.Triangles[:k], m.Triangles[k+1:]...)
	}},
	{"triangle flipped", false, func(m *mesh.Mesh, rng *rand.Rand) {
		tr := &m.Triangles[rng.Intn(len(m.Triangles))]
		tr[1], tr[2] = tr[2], tr[1]
	}},
	{"triangle repeated", false, func(m *mesh.Mesh, rng *rand.Rand) {
		tr := m.Triangles[rng.Intn(len(m.Triangles))]
		m.Triangles = append(m.Triangles, [3]int32{tr[1], tr[2], tr[0]})
	}},
	{"second triangle on a directed edge", false, func(m *mesh.Mesh, rng *rand.Rand) {
		// Some corner triangles have no other point to their edge's
		// left; draw until one does.
		for {
			tr := m.Triangles[rng.Intn(len(m.Triangles))]
			w := int32(rng.Intn(len(m.Points)))
			if w != tr[2] && geom.Orient2DSign(m.Points[tr[0]], m.Points[tr[1]], m.Points[w]) > 0 {
				m.Triangles = append(m.Triangles, [3]int32{tr[0], tr[1], w})
				return
			}
		}
	}},
	{"vertex repeated", false, func(m *mesh.Mesh, rng *rand.Rand) {
		tr := &m.Triangles[rng.Intn(len(m.Triangles))]
		tr[2] = tr[1]
	}},
	{"vertex out of range", false, func(m *mesh.Mesh, rng *rand.Rand) {
		m.Triangles[rng.Intn(len(m.Triangles))][rng.Intn(3)] = int32(len(m.Points)) + int32(rng.Intn(5))
	}},
	{"vertex negative", false, func(m *mesh.Mesh, rng *rand.Rand) {
		m.Triangles[rng.Intn(len(m.Triangles))][rng.Intn(3)] = -1 - int32(rng.Intn(5))
	}},
}

// TestAuditAgreesWithInvariantAudit: on seeded corruptions of a grid,
// Mesh.Audit — orientation plus the half-edge table — passes or fails
// exactly when internal/audit's orientation and conformity checks do. Both
// read the one half-edge table, so this holds the two readers to one
// verdict; the independent oracle for the table is the map-based reference
// of internal/audit's TestAuditMatchesMapReference.
func TestAuditAgreesWithInvariantAudit(t *testing.T) {
	checks, err := audit.ByName("orientation,conformity")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range gridCorruptions {
		for seed := int64(1); seed <= 8; seed++ {
			m := grid(gridN)
			c.apply(m, rand.New(rand.NewSource(seed)))
			rep := audit.Run(&audit.Snapshot{Mesh: m}, checks)
			err := m.Audit()
			if (err == nil) != rep.Ok() {
				t.Errorf("%s, seed %d: Mesh.Audit says %v, the invariant audit %v", c.name, seed, err, rep.Error())
			}
			if (err == nil) != c.clean {
				t.Errorf("%s, seed %d: Mesh.Audit returned %v", c.name, seed, err)
			}
		}
	}
}

// latticeMesh decodes fuzz bytes into a mesh over a k x k lattice of unit
// points, k = 2 + data[0]%6, point (i, j) at index j*k+i, with one
// triangle per following three bytes. A byte b names vertex b%(k²+16)-8,
// so indices fall in and out of range on both sides, and nothing stops a
// triangle from repeating a vertex, winding either way or repeating a
// directed edge.
func latticeMesh(data []byte) *mesh.Mesh {
	m := &mesh.Mesh{}
	if len(data) == 0 {
		return m
	}
	k := 2 + int(data[0])%6
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			m.Points = append(m.Points, geom.Pt(float64(i), float64(j)))
		}
	}
	for b := data[1:]; len(b) >= 3; b = b[3:] {
		var t [3]int32
		for c := range t {
			t[c] = int32(int(b[c])%(k*k+16)) - 8
		}
		m.Triangles = append(m.Triangles, t)
	}
	return m
}

// addGridCorpus seeds f with the grid corruptions of
// TestAuditAgreesWithInvariantAudit in latticeMesh's encoding, on the same
// lattice.
func addGridCorpus(f *testing.F) {
	const k = gridN + 1
	for _, c := range gridCorruptions {
		for seed := int64(1); seed <= 3; seed++ {
			m := grid(gridN)
			c.apply(m, rand.New(rand.NewSource(seed)))
			data := []byte{k - 2}
			for _, tr := range m.Triangles {
				for _, v := range tr {
					if v >= 0 && int(v) < len(m.Points) {
						p := m.Points[v]
						v = int32(p.Y)*k + int32(p.X)
					}
					data = append(data, byte(v+8))
				}
			}
			if (latticeMesh(data).Audit() == nil) != c.clean {
				f.Fatalf("%s, seed %d: the lattice encoding changes the verdict", c.name, seed)
			}
			f.Add(data)
		}
	}
}

// FuzzGateImpliesRegistry: whenever Mesh.Audit rejects a mesh, the
// orientation and conformity checks report a violation on some triangle.
// An audited run rests on this, since there the registry stands in for the
// merge's gate. Orphan and duplicate-point findings name no triangle, and
// a lattice under arbitrary triangles nearly always has orphans, so only
// a finding attributed to a triangle counts. The corpus holds the grid
// corruptions.
func FuzzGateImpliesRegistry(f *testing.F) {
	addGridCorpus(f)
	checks, err := audit.ByName("orientation,conformity")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := latticeMesh(data)
		gate := m.Audit()
		if gate == nil {
			return
		}
		rep := audit.Run(&audit.Snapshot{Mesh: m}, checks)
		for _, v := range rep.Violations {
			if v.Element >= 0 {
				return
			}
		}
		t.Fatalf("Mesh.Audit rejects the mesh (%v) but orientation and conformity name no triangle: %v\npoints %d, triangles %v",
			gate, rep.Error(), len(m.Points), m.Triangles)
	})
}

// FuzzAuditMatchesSortedReference: the stamped gate returns the error text
// the sorted-bucket gate it replaced returns, or nil with it, so every
// run's merge fails, or passes, with the same message.
func FuzzAuditMatchesSortedReference(f *testing.F) {
	addGridCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		m := latticeMesh(data)
		got, want := m.Audit(), mesh.AuditSortedReference(m)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Audit returns %v, the sorted reference %v\npoints %d, triangles %v", got, want, len(m.Points), m.Triangles)
		}
	})
}
