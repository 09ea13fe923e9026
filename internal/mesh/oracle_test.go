package mesh_test

import (
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

// TestAuditAgreesWithInvariantAudit: on seeded corruptions of a grid,
// Mesh.Audit — orientation plus the half-edge table — passes or fails
// exactly when internal/audit's orientation and conformity checks do.
// Those keep their own hash maps, so the two share no code.
func TestAuditAgreesWithInvariantAudit(t *testing.T) {
	checks, err := audit.ByName("orientation,conformity")
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	corruptions := []struct {
		name  string
		clean bool
		apply func(m *mesh.Mesh, rng *rand.Rand)
	}{
		{"none", true, func(*mesh.Mesh, *rand.Rand) {}},
		{"interior triangle removed", true, func(m *mesh.Mesh, rng *rand.Rand) {
			// Cells off the rim, so no point is orphaned.
			k := 2 * ((1+rng.Intn(n-2))*n + 1 + rng.Intn(n-2))
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
	for _, c := range corruptions {
		for seed := int64(1); seed <= 8; seed++ {
			m := grid(n)
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
