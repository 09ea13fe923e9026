package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// outerBoundary is the outer-boundary extraction the leaves' edges
// replaced, kept as the reference: the boundary edges of the
// boundary-layer mesh, read off its half-edge table, that are not on a
// body surface, as segments over their points in order of first
// appearance, and each point's index in m.
func outerBoundary(m *mesh.Mesh, surfaceSet map[geom.Point]bool) (pts []geom.Point, segs [][2]int32, idx []int32) {
	local := make([]int32, len(m.Points)) // 1 + a mesh point's index in pts, 0 if absent
	intern := func(v int32) int32 {
		if local[v] == 0 {
			pts = append(pts, m.Points[v])
			idx = append(idx, v)
			local[v] = int32(len(pts))
		}
		return local[v] - 1
	}
	for _, e := range m.BoundaryEdges() {
		if surfaceSet[m.Points[e[0]]] && surfaceSet[m.Points[e[1]]] {
			continue // body surface edge
		}
		segs = append(segs, [2]int32{intern(e[0]), intern(e[1])})
	}
	return pts, segs, idx
}

// checkOuterBoundary compares an outer boundary the merge read off the
// leaves' edges with the reference read off b's boundary-layer mesh:
// points, segments, and each point's index, which the merge declared
// shared on b. The probe leaves b unfit for further use.
func checkOuterBoundary(t *testing.T, name string, b *mesh.Builder, surfaceSet map[geom.Point]bool, pts []geom.Point, segs [][2]int32) {
	t.Helper()
	wantPts, wantSegs, wantIdx := outerBoundary(b.Mesh(), surfaceSet)
	if len(wantSegs) == 0 {
		t.Fatalf("%s: the reference finds no outer boundary", name)
	}
	if !reflect.DeepEqual(pts, wantPts) || !reflect.DeepEqual(segs, wantSegs) {
		t.Errorf("%s: %d points and %d segments, the reference %d and %d or another order",
			name, len(pts), len(segs), len(wantPts), len(wantSegs))
		return
	}
	for i, v := range wantIdx {
		if got := b.AddPoint(wantPts[i]); got != v {
			t.Errorf("%s: outer point %d %v is shared as mesh point %d, the reference names %d", name, i, wantPts[i], got, v)
			return
		}
	}
}

// TestOuterBoundaryMatchesMeshReference: the outer boundary the
// boundary-layer merge reads off the leaves' open and seam edges is, point
// for point, segment for segment and index for index, the one the
// reference reads off the merged mesh's half-edge table — on one and
// three elements (stock, and rotated 0.37° as the bench jitters it), at 1,
// 2 and 4 ranks with 1 to 64 subdomains each (projection depths 1 to 8),
// and in SequentialBaseline's
// single leaf.
func TestOuterBoundaryMatchesMeshReference(t *testing.T) {
	highlift := func(phi float64) Config {
		cfg := DefaultConfig()
		cfg.Geometry = airfoil.ThreeElement(64)
		for i := range cfg.Geometry.Elements {
			pl := &cfg.Geometry.Elements[i].Place
			pl.AngleDeg -= phi
			pl.Offset = pl.Offset.Rotate(phi * math.Pi / 180)
		}
		return cfg
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"small", smallConfig(1)}, {"default", DefaultConfig()}, {"highlift", highlift(0)}, {"highlift-rotated", highlift(0.37)}} {
		for _, ranks := range []int{1, 2, 4} {
			for _, spr := range []int{1, 2, 3, 4, 6, 8, 16, 32, 64} {
				cfg := c.cfg
				cfg.Ranks, cfg.SubdomainsPerRank = ranks, spr
				rc, tasks := runThroughBLMerge(t, cfg)
				name := fmt.Sprintf("%s, %d ranks, %d subdomains each, %d leaves", c.name, ranks, spr, len(tasks))
				checkOuterBoundary(t, name, rc.builder, rc.surfaceSet, rc.outerPts, rc.outerSegs)
			}
		}
		g, err := c.cfg.graph()
		if err != nil {
			t.Fatal(err)
		}
		layers := blayer.Generate(g, c.cfg.BL)
		blPoints, surfaceSet := gatherBoundaryLayer(layers)
		b, pts, segs, err := baselineLayer(new(delaunay.Triangulation), layers, blPoints, surfaceSet, g.Farfield.BBox(), c.cfg.BL)
		if err != nil {
			t.Fatal(err)
		}
		checkOuterBoundary(t, c.name+", SequentialBaseline", b, surfaceSet, pts, segs)
	}
}

// TestSeamEdgesCancelADuplicatedTriangle: two leaves keep the triangle
// abc, and only the second keeps acd beside it. The first leaf's edge ca
// is open; its reverse ac is no leaf's open edge, since the second keeps
// both sides of it, but it is the second leaf's seam edge, and that alone
// takes ca off the boundary abcd.
func TestSeamEdgesCancelADuplicatedTriangle(t *testing.T) {
	a, b, c, d := geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)
	const both = edgeOpen | edgeSeam
	first := submesh{
		pts:    []geom.Point{a, b, c},
		shared: []int32{0, 1, 2},
		tris:   [][3]int32{{0, 1, 2}},
		edges:  []leafEdge{{0, 1, both}, {1, 2, both}, {2, 0, both}},
	}
	second := submesh{
		pts:    []geom.Point{a, b, c, d},
		shared: []int32{0, 1, 2},
		tris:   [][3]int32{{0, 1, 2}, {0, 2, 3}},
		edges:  []leafEdge{{0, 1, both}, {1, 2, both}, {2, 0, edgeSeam}, {0, 2, edgeSeam}, {2, 3, edgeOpen}, {3, 0, edgeOpen}},
	}
	bld, pts, segs := mergeBoundaryLayer([]submesh{first, second}, nil)
	if n := bld.Mesh().NumTriangles(); n != 2 {
		t.Fatalf("the merged mesh has %d triangles, want abc once and acd", n)
	}
	if len(segs) != 4 {
		t.Errorf("%d boundary segments %v over %v, want the square's 4", len(segs), segs, pts)
	}
	checkOuterBoundary(t, "two leaves keeping abc", bld, nil, pts, segs)
}
