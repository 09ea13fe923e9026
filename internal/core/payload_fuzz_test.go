package core_test

import (
	"encoding/binary"
	"math"
	"testing"

	"pamg2d/internal/core"
	"pamg2d/internal/geom"
)

// FuzzTaskPayload runs arbitrary small polygons as typed region tasks: the
// first byte picks a transition (even) or an inviscid task (odd), every
// following 16 bytes are a point as two little-endian float64s, and a loop
// of segments closes the points in order. A task's input is built by the
// pipeline from a validated graph, so coordinates are finite; inputs with
// others are skipped. The task must never panic: it either returns the
// kernel's error or a submesh whose result frame the codec decodes and the
// offset merge assembles.
func FuzzTaskPayload(f *testing.F) {
	polygon := func(kind byte, coords ...float64) []byte {
		b := []byte{kind}
		for _, v := range coords {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	square := []float64{0, 0, 1, 0, 1, 1, 0, 1}
	f.Add(polygon(0, square...))
	f.Add(polygon(1, square...))
	// A transition over a unit square with one corner moved 2^64 along x:
	// the kernel's walk-seed grid used to give such a flat box a row of
	// 6e9 cells.
	f.Add(polygon(0, 0, 0, 0x1p64, 0, 1, 1, 0, 1))
	f.Add([]byte{})
	f.Add(polygon(0))
	f.Add(polygon(1, 0.5, 0.5))
	f.Add(polygon(0, 0, 0, 1, 1))
	f.Add(polygon(1, 0, 0, 1, 0, 0.5, 1))
	f.Add(polygon(0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1))               // a repeated corner
	f.Add(polygon(1, 0, 0, 1, 1, 1, 0, 0, 1))                     // a bow tie: the loop crosses itself
	f.Add(polygon(0, 0, 0, 1, 0, 1, 0.5, 0.5, 0.5, 0.5, 1, 0, 1)) // an L
	f.Add(polygon(1, 0, 0, 1e-300, 0, 1e-300, 1e-300))            // a triangle below the size scale
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		pts := make([]geom.Point, (len(b)-1)/16)
		for i := range pts {
			x := math.Float64frombits(binary.LittleEndian.Uint64(b[1+16*i:]))
			y := math.Float64frombits(binary.LittleEndian.Uint64(b[9+16*i:]))
			if math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(y) || math.IsInf(y, 0) {
				return
			}
			pts[i] = geom.Pt(x, y)
		}
		frame, err := core.RegionTask(b[0]%2 == 0, pts)
		if err != nil {
			return
		}
		if _, _, _, err := core.SubmeshToMesh(frame); err != nil {
			t.Fatalf("accepted %d points; the result does not assemble: %v", len(pts), err)
		}
	})
}
