package delaunay

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pamg2d/internal/geom"
)

// A workspace input for the reuse tests: a header byte, then one point per
// four bytes (fuzzCoord's x and y). The header's low two bits pick the
// kind, bits 2–5 scale y by 2^-k so thin boundary-layer stacks fit the
// 1/64 grid:
//
//	0 a point cloud, built and extracted with neighbours (a boundary-layer
//	  leaf's path);
//	1 a region: a square loop with a square hole, both marched, and the
//	  points strictly between them, built, refined and extracted (a
//	  transition or inviscid task's path);
//	2 the cloud in a frame around its first three points, which fails
//	  with ErrOutside partway through insertion when a later point lies
//	  outside the frame;
//	3 the cloud with every point twice (duplicates).
const (
	wsCloud = iota
	wsRegion
	wsOutside
	wsDuplicates
)

// wsInput decodes a workspace input.
func wsInput(data []byte) (kind int, in Input) {
	if len(data) == 0 {
		return wsCloud, Input{}
	}
	kind = int(data[0] & 3)
	yScale := math.Ldexp(1, -int(data[0]>>2&15))
	side, hole := 256.0, 64.0
	if kind == wsRegion {
		loop := func(h float64, steps int) {
			first := int32(len(in.Points))
			corners := [4]geom.Point{geom.Pt(-h, -h), geom.Pt(h, -h), geom.Pt(h, h), geom.Pt(-h, h)}
			for c := range corners {
				a, b := corners[c], corners[(c+1)%4]
				for s := range steps {
					f := float64(s) / float64(steps)
					in.Points = append(in.Points, geom.Pt(a.X+f*(b.X-a.X), (a.Y+f*(b.Y-a.Y))*yScale))
				}
			}
			n := int32(4 * steps)
			for k := range n {
				in.Segments = append(in.Segments, [2]int32{first + k, first + (k+1)%n})
			}
		}
		loop(side, 8)
		loop(hole, 4)
		in.Holes = []geom.Point{geom.Pt(0, 0)}
	}
	for i := 1; i+4 <= len(data); i += 4 {
		x, y := fuzzCoord(data[i:]), fuzzCoord(data[i+2:])
		if kind == wsRegion {
			inside := math.Abs(x) < side && math.Abs(y) < side
			if !inside || math.Abs(x) <= hole && math.Abs(y) <= hole {
				continue
			}
		}
		p := geom.Pt(x, y*yScale)
		in.Points = append(in.Points, p)
		if kind == wsDuplicates {
			in.Points = append(in.Points, p)
		}
	}
	if kind == wsOutside && len(in.Points) >= 3 {
		in.Frame = geom.BBoxOf(in.Points[:3])
	}
	return kind, in
}

// wsQuality refines a region: the quality bound, a size field that grades
// away from the origin, and a point cap that keeps a thin region's
// refinement short (exceeding it is an error, compared like any other).
func wsQuality() Quality {
	return Quality{
		MaxRadiusEdgeRatio: math.Sqrt2,
		SizeAt:             func(p geom.Point) float64 { return 64 + 4*math.Abs(p.X) },
		MaxPoints:          3000,
	}
}

// wsOutcome is what a task reads off a workspace: the extracted mesh, the
// neighbours, and the error text of the first step that failed. A panic is
// an outcome too, so a kernel fault the input provokes in both
// triangulations compares equal and only a difference fails.
type wsOutcome struct {
	res *Result
	nb  [][3]int32
	err string
}

// wsRun runs the kernel calls of kind's task on t: Build, then for a
// region Refine and Extract, otherwise ExtractNeighbors.
func wsRun(t *Triangulation, kind int, in Input) (out wsOutcome) {
	defer func() {
		if p := recover(); p != nil {
			out = wsOutcome{err: fmt.Sprintf("panic: %v", p)}
		}
	}()
	if err := t.Build(in); err != nil {
		return wsOutcome{err: err.Error()}
	}
	if kind == wsRegion {
		if err := t.Refine(wsQuality()); err != nil {
			return wsOutcome{err: err.Error()}
		}
		return wsOutcome{res: t.Extract()}
	}
	res, nb := t.ExtractNeighbors()
	return wsOutcome{res: res, nb: nb}
}

// cloneResult deep-copies a result, to check later that nothing changed it.
func cloneResult(r *Result) *Result {
	if r == nil {
		return nil
	}
	return &Result{
		Points:      append([]geom.Point(nil), r.Points...),
		Triangles:   append([][3]int32(nil), r.Triangles...),
		Constrained: append([][3]bool(nil), r.Constrained...),
	}
}

// wsBytes encodes points as workspace input bytes under header hdr, y
// divided by the header's scale before it is put on the 1/64 grid.
func wsBytes(hdr byte, pts []geom.Point) []byte {
	yScale := math.Ldexp(1, -int(hdr>>2&15))
	out := []byte{hdr}
	for _, p := range pts {
		out = binary.LittleEndian.AppendUint16(out, uint16(int16(math.Round(p.X*64))))
		out = binary.LittleEndian.AppendUint16(out, uint16(int16(math.Round(p.Y/yScale*64))))
	}
	return out
}

// wsLeafSeed is a boundary-layer leaf: 24 rays off a gently curved wall,
// each with 20 layers growing by 1.25 from a first height of 4e-5.
func wsLeafSeed() []byte {
	const hdr = wsCloud | 12<<2
	var pts []geom.Point
	for i := range 24 {
		x := 0.25 * float64(i)
		wall := 0.002 * math.Sin(x)
		off, h := 0.0, 4e-5
		for range 20 {
			pts = append(pts, geom.Pt(x, wall+off))
			off += h
			h *= 1.25
		}
	}
	return wsBytes(hdr, pts)
}

// wsRegionSeed is a region task: the marched annulus with a handful of
// interior points, refined to the quality bound and the graded size.
func wsRegionSeed() []byte {
	return wsBytes(wsRegion, []geom.Point{
		geom.Pt(100, 100), geom.Pt(-150, 80), geom.Pt(200, -200), geom.Pt(-90, -120), geom.Pt(70, 180),
	})
}

// FuzzBuildReuse holds a reused workspace to a fresh Triangulation: after
// the first input's task ran in the workspace (and failed, or not), the
// second input's Build, Refine and Extract or ExtractNeighbors give
// exactly what a new Triangulation gives, and the first task's result is
// untouched by the second (Extract allocates; no result aliases the
// workspace).
func FuzzBuildReuse(f *testing.F) {
	leaf, region := wsLeafSeed(), wsRegionSeed()
	f.Add(leaf, region)
	f.Add(region, leaf)
	f.Add(region, region)
	f.Add(leaf, leaf)
	f.Add(wsBytes(wsOutside, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(0.5, 0.25), geom.Pt(400, 400)}), leaf)
	f.Add(wsBytes(wsOutside, []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(300, -300), geom.Pt(-400, 400)}), region)
	f.Add(wsBytes(wsDuplicates, []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2), geom.Pt(1, 1)}), region)
	f.Add([]byte{wsCloud, 1, 0}, leaf)
	f.Fuzz(func(t *testing.T, first, second []byte) {
		if len(first) > 1+4*600 || len(second) > 1+4*600 {
			return
		}
		kindA, inA := wsInput(first)
		kindB, inB := wsInput(second)
		var ws Triangulation
		a := wsRun(&ws, kindA, inA)
		keptA := cloneResult(a.res)
		got := wsRun(&ws, kindB, inB)
		want := wsRun(new(Triangulation), kindB, inB)
		if got.err != want.err {
			t.Fatalf("reused workspace: error %q, fresh triangulation: %q", got.err, want.err)
		}
		if !reflect.DeepEqual(got.res, want.res) || !reflect.DeepEqual(got.nb, want.nb) {
			t.Fatalf("reused workspace's result differs from a fresh triangulation's (%d vs %d triangles)",
				len(resultTriangles(got.res)), len(resultTriangles(want.res)))
		}
		if !reflect.DeepEqual(a.res, keptA) {
			t.Fatal("the first task's result changed when the workspace built the second input")
		}
	})
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

func resultTriangles(r *Result) [][3]int32 {
	if r == nil {
		return nil
	}
	return r.Triangles
}

// TestWarmBuildAllocations: a workspace that already built a region builds,
// refines and extracts it again with no store, queue or scratch growth.
// What remains per call is Extract's result (the remap, the Result and
// its three arrays) and Build's insertion order and vertex map; the bound
// is that count.
func TestWarmBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, in := wsInput(wsRegionSeed())
	var ws Triangulation
	run := func() {
		if err := ws.Build(in); err != nil {
			t.Fatal(err)
		}
		if err := ws.Refine(wsQuality()); err != nil {
			t.Fatal(err)
		}
		ws.Extract()
	}
	run()
	const bound = 5 + 2
	if got := testing.AllocsPerRun(20, run); got > bound {
		t.Errorf("a warm Build+Refine+Extract allocates %v times, want at most %d", got, bound)
	}
}
