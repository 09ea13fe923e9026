package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"

	"pamg2d/internal/blayer"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// Result is the output of a pipeline run.
type Result struct {
	Mesh  *mesh.Mesh
	Stats Stats
}

// Generate runs the full push-button pipeline on cfg.Ranks simulated MPI
// ranks and returns the merged, audited mesh.
func Generate(cfg Config) (*Result, error) {
	return GenerateContext(context.Background(), cfg)
}

// GenerateContext is Generate with cancellation: when ctx is canceled or
// its deadline passes, the distributed phases tear their worlds down, the
// worker goroutines drain, and the call returns a *PhaseError naming the
// interrupted stage (wrapping the context's cause) instead of a mesh. All
// failures, not just cancellation, surface as *PhaseError values
// attributing the stage and — for worker-side failures — the rank.
//
// It is a thin wrapper over a throwaway Engine: the run borrows a
// single-use fabric and releases it on return. Long-lived callers that
// execute many runs (cmd/meshd, adaptation loops) should hold a shared
// Engine instead and call Engine.Run directly.
func GenerateContext(ctx context.Context, cfg Config) (*Result, error) {
	eng, err := NewEngine(EngineConfig{
		Ranks:  cfg.Ranks,
		Fabric: cfg.Fabric,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	return eng.Run(ctx, cfg)
}

// foldMetrics writes the run's summary statistics into the metrics
// registry: per-stage walls and allocations as gauges, tasks per rank and
// steal totals as counters, wire volume as gauges. The live histograms
// (task.seconds, loadbal.queue_cost) are recorded at the instrumentation
// sites; this fold adds everything derivable after the fact.
func foldMetrics(m *trace.Metrics, st *Stats) {
	if m == nil {
		return
	}
	var totalTasks int64
	for i := range st.Stages {
		s := &st.Stages[i]
		m.Gauge("stage."+s.Name+".wall_seconds", s.Wall.Seconds())
		m.Gauge("stage."+s.Name+".allocs", float64(s.Allocs))
		if s.Messages > 0 {
			m.Gauge("stage."+s.Name+".wire_bytes", float64(s.BytesOnWire))
		}
		for _, r := range s.Ranks {
			m.Count("tasks.rank."+strconv.Itoa(r.Rank), int64(r.Tasks))
			totalTasks += int64(r.Tasks)
		}
	}
	// tasks.total counts the meshing stages' distributed task executions,
	// so it always equals the sum of the tasks.rank.N counters; the audit
	// runs no tasks.
	m.Count("tasks.total", totalTasks)
	m.Count("steals.requests", int64(st.Steals.Requests))
	m.Count("steals.granted", int64(st.Steals.Granted))
	m.Count("steals.gotten", int64(st.Steals.Gotten))
	m.Gauge("steals.idle_seconds", st.Steals.Idle.Seconds())
	m.Gauge("wire.messages", float64(st.Messages))
	m.Gauge("wire.bytes", float64(st.BytesOnWire))
	m.Gauge("mesh.triangles", float64(st.TotalTriangles))
	if st.Resilience.RanksLost > 0 || st.Resilience.TasksRequeued > 0 {
		m.Count("fabric.rank_deaths", int64(st.Resilience.RanksLost))
		m.Count("fabric.tasks_requeued", int64(st.Resilience.TasksRequeued))
		m.Gauge("fabric.recovery_seconds", st.Resilience.RecoveryWall.Seconds())
	}
}

// graph resolves the configured geometry: the custom PSLG when set,
// otherwise the airfoil configuration.
func (cfg *Config) graph() (*pslg.Graph, error) {
	if cfg.CustomGraph != nil {
		if len(cfg.CustomGraph.Farfield.Points) < 3 {
			return nil, fmt.Errorf("core: custom PSLG needs a far-field loop")
		}
		if err := cfg.CustomGraph.Validate(); err != nil {
			return nil, err
		}
		return cfg.CustomGraph, nil
	}
	return cfg.Geometry.Graph()
}

// gatherBoundaryLayer collects the layers' inserted points, each layer's
// surface vertices first, and the set of surface points the filtering and
// the outer-boundary extraction need downstream.
func gatherBoundaryLayer(layers []*blayer.Layer) (pts []geom.Point, surfaceSet map[geom.Point]bool) {
	surfaceSet = make(map[geom.Point]bool)
	for _, l := range layers {
		pts = append(pts, l.AllPoints()...)
		for _, p := range l.Surface.Points {
			surfaceSet[p] = true
		}
	}
	return pts, surfaceSet
}

// annulus is one element's boundary-layer region: inside the polygon of
// the layer's outer border, outside the element surface. Both loops are
// indexed once per run; every leaf task queries them.
type annulus struct {
	outer, surface *pslg.LoopIndex
}

// layerAnnuli indexes the layers' annuli. It needs the inserted points
// (the outer border is each ray's last point), so it runs after the
// ray-insertion stage.
func layerAnnuli(layers []*blayer.Layer, p blayer.Params) []annulus {
	annuli := make([]annulus, len(layers))
	for i, l := range layers {
		annuli[i] = annulus{
			outer:   pslg.NewLoopIndex(&pslg.Loop{Points: l.OuterBorder(p)}),
			surface: pslg.NewLoopIndex(&l.Surface),
		}
	}
	return annuli
}

// inAnnuli is the boundary-layer filter: a triangle of the boundary-layer
// points' Delaunay triangulation belongs to the mesh when its centroid
// lies in some element's annulus.
func inAnnuli(annuli []annulus, a, b, c geom.Point) bool {
	ctr := geom.Pt((a.X+b.X+c.X)/3, (a.Y+b.Y+c.Y)/3)
	for _, an := range annuli {
		if an.outer.Contains(ctr) && !an.surface.Contains(ctr) {
			return true
		}
	}
	return false
}

// errNoAnnuli fails a boundary-layer leaf task whose context
// carries no annuli: there is no unfiltered mode.
var errNoAnnuli = errors.New("core: boundary-layer leaf task without layer annuli")

// transitionInput assembles the CDT input for the region between the
// boundary layer's outer boundary and the near-body box border. The box
// border is discretized with the same march the decoupling quadrants use,
// so the two sides of the border agree exactly.
func transitionInput(g *pslg.Graph, outerPts []geom.Point, outerSegs [][2]int32, nbBox geom.BBox, size sizing.Func) (delaunay.Input, error) {
	in := delaunay.Input{}
	in.Points = append(in.Points, outerPts...)
	in.Segments = append(in.Segments, outerSegs...)

	// The near-body box border, marched exactly as InitialQuadrants marches
	// its inner border (MarchBorder is deterministic, so the two
	// discretizations agree point for point).
	nbc := [4]geom.Point{
		geom.Pt(nbBox.Min.X, nbBox.Min.Y), geom.Pt(nbBox.Max.X, nbBox.Min.Y),
		geom.Pt(nbBox.Max.X, nbBox.Max.Y), geom.Pt(nbBox.Min.X, nbBox.Max.Y),
	}
	borderFirst := int32(len(in.Points))
	for i := 0; i < 4; i++ {
		in.Points = append(in.Points, decouple.MarchBorder(nbc[i], nbc[(i+1)%4], size)...)
	}
	borderLast := int32(len(in.Points)) - 1
	for k := borderFirst; k < borderLast; k++ {
		in.Segments = append(in.Segments, [2]int32{k, k + 1})
	}
	in.Segments = append(in.Segments, [2]int32{borderLast, borderFirst})

	// Hole seeds: inside each body (the flood spreads across the whole
	// boundary-layer annulus, which carries no constraints in this CDT,
	// and stops at the outer-boundary segments).
	for i := range g.Surfaces {
		in.Holes = append(in.Holes, pslg.InteriorPointOf(&g.Surfaces[i]))
	}
	return in, nil
}

// qualityFor mirrors Triangle's quality switch used throughout the
// pipeline; slope is size's declared SizeSlope (sizing.Graded.Slope), or 0.
func qualityFor(size sizing.Func, slope float64) delaunay.Quality {
	return delaunay.Quality{
		MaxRadiusEdgeRatio: math.Sqrt2,
		SizeAt:             size,
		SizeSlope:          slope,
		NoSplitSegments:    true,
	}
}
