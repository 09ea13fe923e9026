package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"pamg2d/internal/core"
)

// FuzzSubmeshDecode feeds the root's merge arbitrary float bit patterns in
// place of a meshing task's result — over TCP that vector is another
// process's word. The boundary-layer merge, outer-boundary extraction
// included, must refuse it or build a mesh whose triangles index points
// that exist, which Mesh.Audit can then walk, and a boundary whose
// segments index its points; never panic, never allocate beyond the
// vector's own size.
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
	f.Add(bytesOf([]float64{0, 0, 0, 0}))
	// One triangle over three shared points, with its three edges open and
	// seam; the same with an index out of range, with an edge of kind 0,
	// with an edge to a point that does not exist, a NaN count, and a
	// header promising more than follows.
	tri := []float64{3, 3, 1, 3, 0, 0, 1, 0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 3, 1, 2, 3, 2, 0, 3}
	if _, _, segs, err := core.SubmeshToMesh(tri); err != nil || len(segs) != 3 {
		f.Fatalf("the one-triangle seed gives %d boundary segments, %v; want its 3", len(segs), err)
	}
	f.Add(bytesOf(tri))
	for _, c := range []struct {
		slot int
		v    float64
	}{{15, 3}, {18, 0}, {17, 3}} {
		bad := append([]float64(nil), tri...)
		bad[c.slot] = c.v
		if _, _, _, err := core.SubmeshToMesh(bad); err == nil {
			f.Fatalf("the seed with slot %d set to %v is accepted", c.slot, c.v)
		}
		f.Add(bytesOf(bad))
	}
	f.Add(bytesOf([]float64{math.NaN(), 0, 0, 0}))
	f.Add(bytesOf([]float64{1e9, 0, 1e9, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		m, pts, segs, err := core.SubmeshToMesh(vals)
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
		if len(m.Points) > len(vals) || len(m.Triangles) > len(vals) || len(segs) > len(vals) {
			t.Fatalf("accepted %d floats; mesh has %d points and %d triangles, the boundary %d segments", len(vals), len(m.Points), len(m.Triangles), len(segs))
		}
		for i, s := range segs {
			if s[0] < 0 || int(s[0]) >= len(pts) || s[1] < 0 || int(s[1]) >= len(pts) {
				t.Fatalf("accepted %d floats; boundary segment %d is %v over %d points", len(vals), i, s, len(pts))
			}
		}
		_ = m.Audit() // any verdict, no panic
	})
}
