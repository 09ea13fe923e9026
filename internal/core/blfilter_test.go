package core

import (
	"errors"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/project"
	"pamg2d/internal/pslg"
)

// TestBLLeafFilterMatchesLinearReference: on the three-element
// configuration (three annuli, rays trimmed against neighbouring
// elements), every boundary-layer leaf task returns exactly the triangles,
// in order, that a reference keeps by triangulating the leaf itself and
// filtering with the linear pslg.Loop.Contains.
func TestBLLeafFilterMatchesLinearReference(t *testing.T) {
	g, err := airfoil.ThreeElement(64).Graph()
	if err != nil {
		t.Fatal(err)
	}
	bl := blayer.DefaultParams()
	layers := blayer.Generate(g, bl)
	if len(layers) != 3 {
		t.Fatalf("%d layers, want 3", len(layers))
	}
	var pts []geom.Point
	for _, l := range layers {
		pts = append(pts, l.AllPoints()...)
	}
	frame := g.Farfield.BBox()
	leaves, _ := project.Decompose(project.New(pts), project.Options{MinVerts: 16, MaxDepth: 4})
	tasks, dealt := blLeafTasks(leaves, len(pts))
	tctx := taskCtx{frame: frame, annuli: layerAnnuli(layers, bl), dealt: dealt}

	keep := linearAnnuli(layers, bl)

	kept, dropped := 0, 0
	ws := new(delaunay.Triangulation)
	for li, leaf := range leaves {
		got, err := processTask(&tasks[li], tctx, ws)
		if err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
		lp := make([]geom.Point, len(leaf.XS))
		for i, v := range leaf.XS {
			lp[i] = v.P
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: lp, Frame: frame})
		if err != nil {
			t.Fatalf("leaf %d reference: %v", li, err)
		}
		var want [][3]geom.Point
		for _, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			if !leaf.Region.Contains(geom.Circumcenter(a, b, c)) {
				continue
			}
			if keep(a, b, c) {
				want = append(want, [3]geom.Point{a, b, c})
			} else {
				dropped++
			}
		}
		kept += len(want)
		gotTris := resultTriangles(got)
		if len(gotTris) != len(want) {
			t.Fatalf("leaf %d: task returned %d triangles, reference keeps %d", li, len(gotTris), len(want))
		}
		for k := range want {
			if gotTris[k] != want[k] {
				t.Fatalf("leaf %d: triangle %d differs from the reference", li, k)
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("reference kept %d and dropped %d triangles; the filter is not exercised", kept, dropped)
	}
}

// linearAnnuli is the reference boundary-layer filter: inAnnuli's
// decision made with the linear pslg.Loop.Contains.
func linearAnnuli(layers []*blayer.Layer, bl blayer.Params) func(a, b, c geom.Point) bool {
	outers := make([]pslg.Loop, len(layers))
	for i, l := range layers {
		outers[i] = pslg.Loop{Points: l.OuterBorder(bl)}
	}
	return func(a, b, c geom.Point) bool {
		ctr := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
		for k := range layers {
			if outers[k].Contains(ctr) && !layers[k].Surface.Contains(ctr) {
				return true
			}
		}
		return false
	}
}

// TestInAnnuliMatchesLinearReference: on the benchmark's three-element
// resolution, whose main and flap outer borders reach 12 chords out at a
// few ray ends (the index narrows their tables), inAnnuli decides every
// triangle of every boundary-layer leaf, owned or not, as the linear
// reference does.
func TestInAnnuliMatchesLinearReference(t *testing.T) {
	g, err := airfoil.ThreeElement(256).Graph()
	if err != nil {
		t.Fatal(err)
	}
	bl := blayer.DefaultParams()
	layers := blayer.Generate(g, bl)
	var pts []geom.Point
	for _, l := range layers {
		pts = append(pts, l.AllPoints()...)
	}
	annuli := layerAnnuli(layers, bl)
	keep := linearAnnuli(layers, bl)
	leaves, _ := project.Decompose(project.New(pts), project.Options{MinVerts: 16, MaxDepth: 6})
	kept, dropped := 0, 0
	for li, leaf := range leaves {
		lp := make([]geom.Point, len(leaf.XS))
		for i, v := range leaf.XS {
			lp[i] = v.P
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: lp, Frame: g.Farfield.BBox()})
		if err != nil {
			t.Fatalf("leaf %d: %v", li, err)
		}
		for k, tri := range res.Triangles {
			a, b, c := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			want := keep(a, b, c)
			if got := inAnnuli(annuli, a, b, c); got != want {
				t.Fatalf("leaf %d triangle %d (%v, %v, %v): inAnnuli = %v, linear reference %v", li, k, a, b, c, got, want)
			}
			if want {
				kept++
			} else {
				dropped++
			}
		}
	}
	if kept == 0 || dropped == 0 {
		t.Errorf("reference kept %d and dropped %d triangles; the filter is not exercised", kept, dropped)
	}
	t.Logf("%d leaves, %d triangles kept, %d dropped", len(leaves), kept, dropped)
}

// TestBLLeafWithoutAnnuli: a boundary-layer leaf has no unfiltered mode.
func TestBLLeafWithoutAnnuli(t *testing.T) {
	tasks, tctx := fig08Tasks(t)
	tctx.annuli = nil
	if _, err := processTask(&tasks[0], tctx, new(delaunay.Triangulation)); !errors.Is(err, errNoAnnuli) {
		t.Errorf("leaf task without annuli returned %v, want errNoAnnuli", err)
	}
}
