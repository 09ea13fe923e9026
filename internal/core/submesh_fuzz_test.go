package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"pamg2d/internal/core"
)

// FuzzSubmeshDecode feeds the root's merge arbitrary float bit patterns in
// place of a meshing task's result — over TCP that vector is another
// process's word. The merge must refuse it or build a mesh whose
// triangles index points that exist, which Mesh.Audit can then walk;
// never panic, never allocate beyond the vector's own size.
func FuzzSubmeshDecode(f *testing.F) {
	bytesOf := func(vals []float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, vals := range core.RealSubmeshes(f) {
		f.Add(bytesOf(vals))
	}
	f.Add([]byte{})
	f.Add(bytesOf([]float64{0, 0, 0}))
	// One triangle over three shared points; the same with an index out of
	// range, a NaN count, and a header promising more than follows.
	f.Add(bytesOf([]float64{3, 3, 1, 0, 0, 1, 0, 0, 1, 0, 1, 2, 0, 1, 2}))
	f.Add(bytesOf([]float64{3, 3, 1, 0, 0, 1, 0, 0, 1, 0, 1, 2, 0, 1, 3}))
	f.Add(bytesOf([]float64{math.NaN(), 0, 0}))
	f.Add(bytesOf([]float64{1e9, 0, 1e9, 0, 0}))
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		m, err := core.SubmeshToMesh(vals)
		if err != nil {
			return
		}
		for i, tri := range m.Triangles {
			for _, v := range tri {
				if v < 0 || int(v) >= len(m.Points) {
					t.Fatalf("accepted %d floats; triangle %d is %v over %d points", len(vals), i, tri, len(m.Points))
				}
			}
		}
		if len(m.Points) > len(vals) || len(m.Triangles) > len(vals) {
			t.Fatalf("accepted %d floats; mesh has %d points and %d triangles", len(vals), len(m.Points), len(m.Triangles))
		}
		_ = m.Audit() // any verdict, no panic
	})
}
