package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"pamg2d/internal/core"
)

// FuzzSubmeshDecode feeds the root's merge arbitrary bytes in place of a
// meshing task's result frame — over TCP that frame is another process's
// word, and the task-result codec decodes it. The codec and the
// boundary-layer merge behind it, outer-boundary extraction included, must
// refuse it or build a mesh whose triangles index points that exist, which
// Mesh.Audit can then walk, and a boundary whose segments index its
// points; never panic, never allocate beyond the frame's own size.
func FuzzSubmeshDecode(f *testing.F) {
	// frameOf is task 0's result frame, measuring no time, with the
	// submesh floats vals.
	frameOf := func(vals []float64) []byte {
		b := make([]byte, 12, 12+8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, frame := range core.RealSubmeshes(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add(frameOf([]float64{0, 0, 0, 0}))
	// One triangle over three shared points, with its three edges open and
	// seam; the same with an index out of range, with an edge of kind 0,
	// with an edge to a point that does not exist, a NaN count, a header
	// promising more than follows, and an index of -0.
	tri := []float64{3, 3, 1, 3, 0, 0, 1, 0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 3, 1, 2, 3, 2, 0, 3}
	if _, _, segs, err := core.SubmeshToMesh(frameOf(tri)); err != nil || len(segs) != 3 {
		f.Fatalf("the one-triangle seed gives %d boundary segments, %v; want its 3", len(segs), err)
	}
	f.Add(frameOf(tri))
	for _, c := range []struct {
		slot int
		v    float64
	}{{15, 3}, {18, 0}, {17, 3}} {
		bad := append([]float64(nil), tri...)
		bad[c.slot] = c.v
		if _, _, _, err := core.SubmeshToMesh(frameOf(bad)); err == nil {
			f.Fatalf("the seed with slot %d set to %v is accepted", c.slot, c.v)
		}
		f.Add(frameOf(bad))
	}
	f.Add(frameOf([]float64{math.NaN(), 0, 0, 0}))
	f.Add(frameOf([]float64{1e9, 0, 1e9, 0, 0, 0}))
	negZero := append([]float64(nil), tri...)
	negZero[13] = math.Copysign(0, -1)
	f.Add(frameOf(negZero))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, pts, segs, err := core.SubmeshToMesh(b)
		if err != nil {
			return
		}
		for i, tri := range m.Triangles {
			for _, v := range tri {
				if v < 0 || int(v) >= len(m.Points) {
					t.Fatalf("accepted %d bytes; triangle %d is %v over %d points", len(b), i, tri, len(m.Points))
				}
			}
		}
		if n := len(b) / 8; len(m.Points) > n || len(m.Triangles) > n || len(segs) > n {
			t.Fatalf("accepted %d bytes; mesh has %d points and %d triangles, the boundary %d segments", len(b), len(m.Points), len(m.Triangles), len(segs))
		}
		for i, s := range segs {
			if s[0] < 0 || int(s[0]) >= len(pts) || s[1] < 0 || int(s[1]) >= len(pts) {
				t.Fatalf("accepted %d bytes; boundary segment %d is %v over %d points", len(b), i, s, len(pts))
			}
		}
		_ = m.Audit() // any verdict, no panic
	})
}
