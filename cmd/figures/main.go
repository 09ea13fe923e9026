// Command figures regenerates the paper's figures: the illustrative ones
// as SVG files from this reproduction's own data structures, and the
// evaluation's studies as one JSON record:
//
//	fig02_normals.svg        NACA 0012 surface with outward normals
//	fig04_fans.svg           trailing-edge region with the fan of curved rays
//	fig05_isotropy.svg       variable-height boundary layer (isotropy cutoff)
//	fig08_subdomains.svg     boundary layer decomposed into Delaunay subdomains
//	fig09_quadrants.svg      the four initial decoupling quadrants
//	fig10_decoupled.svg      the recursively decoupled inviscid subdomains
//	fig13_intersections.svg  three-element layers with resolved intersections
//	mesh.svg                 a complete pipeline mesh, regions color-coded
//	eval.json                Figures 11/12 (strong scaling) and 14–16
//	                         (convergence), with the host and the commit
//
// Usage: figures -o <directory>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/cli"
	"pamg2d/internal/core"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/mesh"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
	"pamg2d/internal/viz"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	outDir := flag.String("o", "figures", "output directory")
	flag.Parse()
	if err := run(*outDir, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run renders every figure into dir and records the evaluation's studies
// beside them in eval.json; exposed for tests.
func run(dir string, stdout io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var firstErr error
	save := func(name string, c *viz.Canvas) {
		if firstErr != nil {
			return
		}
		path := filepath.Join(dir, name)
		if firstErr = cli.WriteFile(path, func(w io.Writer) error { return c.WriteSVG(w, 1400) }); firstErr == nil {
			fmt.Fprintln(stdout, "wrote", path)
		}
	}

	fig02(save)
	fig04(save)
	fig05(save)
	fig08(save)
	fig09and10(save)
	fig13(save)
	finalMesh(save)
	if firstErr != nil {
		return firstErr
	}

	rec := evalRecord{Host: hostRecord{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()}, Revision: revision()}
	var err error
	if rec.Scaling, err = scalingStudy(paperScaling, stdout); err != nil {
		return err
	}
	if rec.Convergence, err = convergenceStudy(paperConvergence, stdout); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "eval.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", path)
	return nil
}

func fig02(save func(string, *viz.Canvas)) {
	g, err := airfoil.Single(airfoil.NACA0012, 64, 30).Graph()
	if err != nil {
		log.Fatal(err)
	}
	pts := g.Surfaces[0].Points
	normals := blayer.VertexNormals(pts)
	c := viz.New()
	c.Polygon(pts, viz.Style{Stroke: "#000"})
	for i, p := range pts {
		tip := p.Add(normals[i].Scale(0.04))
		c.Segment(geom.Segment{A: p, B: tip}, viz.Style{Stroke: viz.Palette(0)})
	}
	save("fig02_normals.svg", c)
}

func blParams() blayer.Params {
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 1.5e-3, Ratio: 1.3}
	p.MaxLayers = 14
	return p
}

func fig04(save func(string, *viz.Canvas)) {
	g, err := airfoil.Single(airfoil.NACA0012, 64, 30).Graph()
	if err != nil {
		log.Fatal(err)
	}
	layers := blayer.Generate(g, blParams())
	l := layers[0]
	c := viz.New()
	// Zoom on the trailing edge: draw only rays with origins near x=1.
	c.Polygon(l.Surface.Points, viz.Style{Stroke: "#000"})
	for i, r := range l.Rays {
		if r.Origin.X < 0.9 {
			continue
		}
		color := viz.Palette(0)
		if r.Fan {
			color = viz.Palette(3) // the fan of curved rays
		}
		c.Polyline(append([]geom.Point{r.Origin}, l.Points[i]...), viz.Style{Stroke: color})
	}
	save("fig04_fans.svg", c)
}

func fig05(save func(string, *viz.Canvas)) {
	g, err := airfoil.Single(airfoil.NACA0012, 96, 30).Graph()
	if err != nil {
		log.Fatal(err)
	}
	layers := blayer.Generate(g, blParams())
	l := layers[0]
	c := viz.New()
	c.Polygon(l.Surface.Points, viz.Style{Stroke: "#000"})
	for i := range l.Rays {
		c.Polyline(append([]geom.Point{l.Rays[i].Origin}, l.Points[i]...),
			viz.Style{Stroke: viz.Palette(0), Opacity: 0.7})
	}
	c.Polyline(l.OuterBorder(blParams()), viz.Style{Stroke: viz.Palette(3)})
	save("fig05_isotropy.svg", c)
}

func fig08(save func(string, *viz.Canvas)) {
	g, err := airfoil.Single(airfoil.NACA0012, 128, 30).Graph()
	if err != nil {
		log.Fatal(err)
	}
	layers := blayer.Generate(g, blParams())
	pts := layers[0].AllPoints()
	frame := geom.BBoxOf(pts)
	leaves, _ := project.Decompose(project.New(pts), project.Options{MinVerts: 16, MaxDepth: 7})
	c := viz.New()
	for li, leaf := range leaves {
		res, err := delaunay.Triangulate(delaunay.Input{Points: leaf.Points(), Frame: frame})
		if err != nil {
			log.Fatal(err)
		}
		b := mesh.NewBuilder()
		for _, tri := range res.Triangles {
			a, q, r := res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]]
			if leaf.Region.Contains(geom.Circumcenter(a, q, r)) {
				b.AddTriangle(a, q, r)
			}
		}
		c.Mesh(b.Mesh(), viz.Style{Stroke: viz.Palette(li), Opacity: 0.9})
	}
	save("fig08_subdomains.svg", c)
}

func fig09and10(save func(string, *viz.Canvas)) {
	nb := geom.BBox{Min: geom.Pt(-0.5, -0.5), Max: geom.Pt(1.5, 0.5)}
	ff := geom.BBox{Min: geom.Pt(-15, -15), Max: geom.Pt(16, 15)}
	grad := sizing.NewGraded([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0.08, 0.25, 3)
	quads, err := decouple.InitialQuadrants(nb, ff, grad.Area)
	if err != nil {
		log.Fatal(err)
	}
	c := viz.New()
	for i, q := range quads {
		c.Polygon(q.Border, viz.Style{Stroke: viz.Palette(i)})
		c.Points(q.Border, 0.08, viz.Style{Fill: viz.Palette(i), Stroke: viz.Palette(i)})
	}
	save("fig09_quadrants.svg", c)

	regions := decouple.Decouple(quads[:], grad.Area, 64)
	c2 := viz.New()
	for i, r := range regions {
		c2.Polygon(r.Border, viz.Style{Stroke: viz.Palette(i)})
	}
	save("fig10_decoupled.svg", c2)
}

func fig13(save func(string, *viz.Canvas)) {
	g, err := airfoil.ThreeElement(96).Graph()
	if err != nil {
		log.Fatal(err)
	}
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 8e-4, Ratio: 1.3}
	p.MaxLayers = 20
	layers := blayer.Generate(g, p)
	c := viz.New()
	for li, l := range layers {
		c.Polygon(l.Surface.Points, viz.Style{Stroke: "#000"})
		for i := range l.Rays {
			color := viz.Palette(li)
			if l.Rays[i].MaxLen < p.Growth.Offset(p.MaxLayers-1) {
				color = viz.Palette(3) // trimmed by an intersection
			}
			c.Polyline(append([]geom.Point{l.Rays[i].Origin}, l.Points[i]...),
				viz.Style{Stroke: color, Opacity: 0.8})
		}
	}
	save("fig13_intersections.svg", c)
}

func finalMesh(save func(string, *viz.Canvas)) {
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, 48, 8)
	cfg.BL.Growth = growth.Geometric{H0: 2e-3, Ratio: 1.3}
	cfg.BL.MaxLayers = 12
	cfg.SurfaceH0 = 0.05
	cfg.HMax = 1.5
	cfg.Ranks = 2
	res, err := core.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	c := viz.New()
	c.Mesh(res.Mesh, viz.Style{Stroke: "#555"})
	save("mesh.svg", c)
}
