package core

import (
	"fmt"

	"pamg2d/internal/blayer"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
)

// SequentialBaseline generates the same mesh as the pipeline using direct
// sequential kernel calls with no decomposition, decoupling or message
// passing — the "Triangle alone" reference of the paper's sequential
// efficiency measurement (their 192 s versus the application's 196 s; the
// difference is the extra triangles the decoupling paths introduce). Its
// kernel calls share one workspace, as a rank's tasks do.
func SequentialBaseline(cfg Config) (*mesh.Mesh, error) {
	g, err := cfg.graph()
	if err != nil {
		return nil, err
	}
	layers := blayer.Generate(g, cfg.BL)
	blPoints, surfaceSet := gatherBoundaryLayer(layers)

	ffBox := g.Farfield.BBox()
	var surfacePts []geom.Point
	for i := range g.Surfaces {
		surfacePts = append(surfacePts, g.Surfaces[i].Points...)
	}
	grad := sizing.NewGraded(surfacePts, cfg.SurfaceH0, cfg.Gradation, cfg.HMax)

	ws := new(delaunay.Triangulation)
	b, outerPts, outerSegs, err := baselineLayer(ws, layers, blPoints, surfaceSet, ffBox, cfg.BL)
	if err != nil {
		return nil, err
	}
	if len(outerSegs) == 0 {
		return nil, fmt.Errorf("core: baseline boundary layer has no outer boundary")
	}
	blBox := geom.BBoxOf(blPoints)
	margin := cfg.NearBodyMargin
	if margin <= 0 {
		margin = defaultNearBodyMargin
	}
	nbBox := blBox.Inflate(margin * (blBox.Width() + blBox.Height()) / 2)

	transIn, err := transitionInput(g, outerPts, outerSegs, nbBox, grad.Area)
	if err != nil {
		return nil, err
	}
	transRes, err := refineIn(ws, transIn, qualityFor(grad.Area, grad.Slope()))
	if err != nil {
		return nil, err
	}

	// The whole inviscid annulus as one region: the near-body box border
	// (marched identically to the transition side) and the far-field
	// border, with a hole seed at the center.
	annulus, err := annulusInput(nbBox, ffBox, grad)
	if err != nil {
		return nil, err
	}
	invRes, err := refineIn(ws, annulus, qualityFor(grad.Area, grad.Slope()))
	if err != nil {
		return nil, err
	}

	// The builder already holds the boundary-layer mesh.
	regionSubmesh(transRes.Points, transRes.Triangles, transIn.Points).addTo(b, nil)
	regionSubmesh(invRes.Points, invRes.Triangles, annulus.Points).addTo(b, nil)
	m := b.Mesh()
	if err := m.Audit(); err != nil {
		return nil, fmt.Errorf("core: baseline mesh failed audit: %w", err)
	}
	return m, nil
}

// baselineLayer makes one Delaunay triangulation of all boundary-layer
// points in ws and merges it as the pipeline merges its leaves' results,
// from the same result, flagged the same way: one leaf, with no path
// points and so no seam edges.
func baselineLayer(ws *delaunay.Triangulation, layers []*blayer.Layer, blPoints []geom.Point, surfaceSet map[geom.Point]bool, frame geom.BBox, p blayer.Params) (*mesh.Builder, []geom.Point, [][2]int32, error) {
	if err := ws.Build(delaunay.Input{Points: blPoints, Frame: frame}); err != nil {
		return nil, nil, nil, err
	}
	res, nb := ws.ExtractNeighbors()
	annuli := layerAnnuli(layers, p)
	leaf := blSubmesh(res, nb, nil, func(p0, p1, p2 geom.Point) bool { return inAnnuli(annuli, p0, p1, p2) })
	b, pts, segs := mergeBoundaryLayer([]submesh{leaf}, surfaceSet)
	return b, pts, segs, nil
}

// annulusInput builds the CDT input for the region between the near-body
// box and the far-field box as one undecoupled domain.
func annulusInput(nbBox, ffBox geom.BBox, grad *sizing.Graded) (delaunay.Input, error) {
	in := delaunay.Input{}
	addLoop := func(bb geom.BBox) {
		corners := [4]geom.Point{
			geom.Pt(bb.Min.X, bb.Min.Y), geom.Pt(bb.Max.X, bb.Min.Y),
			geom.Pt(bb.Max.X, bb.Max.Y), geom.Pt(bb.Min.X, bb.Max.Y),
		}
		var loop []geom.Point
		for i := 0; i < 4; i++ {
			loop = append(loop, decouple.MarchBorder(corners[i], corners[(i+1)%4], grad.Area)...)
		}
		appendLoop(&in, loop)
	}
	addLoop(nbBox)
	addLoop(ffBox)
	in.Holes = []geom.Point{nbBox.Center()}
	return in, nil
}

// IsotropicBaseline generates the Figure 16 comparison mesh: the same
// geometry and sizing but no anisotropic boundary layer. To resolve the
// near-wall gradients isotropically, the surface edge length is tied to
// the boundary layer's normal spacing scaled by resolutionFactor (1 means
// "as fine as the first layer height", the paper's apples-to-apples
// choice; larger factors trade fidelity for speed in tests).
func IsotropicBaseline(cfg Config, resolutionFactor float64) (*mesh.Mesh, error) {
	g, err := cfg.graph()
	if err != nil {
		return nil, err
	}
	if resolutionFactor <= 0 {
		resolutionFactor = 1
	}
	var surfacePts []geom.Point
	for i := range g.Surfaces {
		surfacePts = append(surfacePts, g.Surfaces[i].Points...)
	}
	h0 := cfg.BL.Growth.Spacing(0) * resolutionFactor
	grad := sizing.NewGraded(surfacePts, h0, cfg.Gradation, cfg.HMax)

	in := delaunay.Input{Frame: g.Farfield.BBox()}
	for i := range g.Surfaces {
		appendLoop(&in, g.Surfaces[i].Points)
		in.Holes = append(in.Holes, pslg.InteriorPointOf(&g.Surfaces[i]))
	}
	appendLoop(&in, g.Farfield.Points)

	res, err := refineIn(new(delaunay.Triangulation), in, delaunay.Quality{
		MaxRadiusEdgeRatio: 1.4142135623730951, // sqrt(2): min angle 20.7 degrees
		SizeAt:             grad.Area,
		SizeSlope:          grad.Slope(),
	})
	if err != nil {
		return nil, err
	}
	b := mesh.NewBuilder()
	for _, tri := range res.Triangles {
		b.AddTriangle(res.Points[tri[0]], res.Points[tri[1]], res.Points[tri[2]])
	}
	m := b.Mesh()
	if err := m.Audit(); err != nil {
		return nil, fmt.Errorf("core: isotropic mesh failed audit: %w", err)
	}
	return m, nil
}

func appendLoop(in *delaunay.Input, pts []geom.Point) {
	first := int32(len(in.Points))
	in.Points = append(in.Points, pts...)
	n := int32(len(pts))
	for k := int32(0); k < n; k++ {
		in.Segments = append(in.Segments, [2]int32{first + k, first + (k+1)%n})
	}
}
