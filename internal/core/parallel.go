package core

import (
	"fmt"
	"time"

	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// taskKind distinguishes the payload encodings.
const (
	kindBLLeaf = iota
	kindTransition
	kindInviscid
	kindRayBatch
)

// taskKindName labels a task's trace span by its payload kind.
func taskKindName(vals []float64) string {
	if len(vals) == 0 {
		return "task"
	}
	switch int(vals[0]) {
	case kindBLLeaf:
		return "task/bl-leaf"
	case kindTransition:
		return "task/transition"
	case kindInviscid:
		return "task/inviscid"
	case kindRayBatch:
		return "task/ray-batch"
	}
	return "task"
}

// blLeafVals builds a projection-decomposition leaf task: kind, the owned
// circumcenter region, then the x-sorted points. The slice is allocated at
// its exact final size and travels by reference through the balancer; its
// serialized form would be mpi.EncodeFloats(vals).
func blLeafVals(leaf *project.Subdomain) []float64 {
	vals := make([]float64, 0, 5+2*len(leaf.XS))
	vals = append(vals, kindBLLeaf,
		leaf.Region.MinX, leaf.Region.MaxX, leaf.Region.MinY, leaf.Region.MaxY)
	for _, v := range leaf.XS {
		vals = append(vals, v.P.X, v.P.Y)
	}
	return vals
}

// regionTaskVals builds a transition input or inviscid region border task
// at its exact final size.
func regionTaskVals(kind int, pts []geom.Point, segs [][2]int32, holes []geom.Point) []float64 {
	vals := make([]float64, 0, 4+2*len(pts)+2*len(segs)+2*len(holes))
	vals = append(vals, float64(kind), float64(len(pts)), float64(len(segs)), float64(len(holes)))
	for _, p := range pts {
		vals = append(vals, p.X, p.Y)
	}
	for _, s := range segs {
		vals = append(vals, float64(s[0]), float64(s[1]))
	}
	for _, h := range holes {
		vals = append(vals, h.X, h.Y)
	}
	return vals
}

// taskCtx carries the shared read-only context every task needs.
type taskCtx struct {
	frame geom.BBox
	size  sizing.Func
	slope float64 // size's delaunay.Quality.SizeSlope
	bl    blayer.Params
	// annuli are the layer regions a boundary-layer leaf filters its
	// triangles by; every process builds them from its own rc.layers.
	annuli []annulus
}

// processTaskCtx executes a task's value vector under the stage's shared
// context and returns the produced floats: an encoded submesh for meshing
// tasks, flat point coordinates for ray-insertion batches. The vals slice
// is the task's Vals vector; it is only read.
func processTaskCtx(vals []float64, ctx taskCtx) ([]float64, error) {
	frame := ctx.frame
	size := ctx.size
	if len(vals) == 0 {
		return nil, fmt.Errorf("core: empty task payload")
	}
	switch int(vals[0]) {
	case kindRayBatch:
		nRays := int(vals[1])
		// The planned per-ray counts are in the payload, so the output size
		// is known up front: two coordinates per planned point.
		planned := 0
		for i, off := 0, 2; i < nRays; i, off = i+1, off+10 {
			planned += int(vals[off+9])
		}
		out := make([]float64, 0, 2*planned)
		off := 2
		for i := 0; i < nRays; i++ {
			r := blayer.Ray{
				Origin:      geom.Pt(vals[off], vals[off+1]),
				Dir:         geom.V(vals[off+2], vals[off+3]),
				MaxLen:      vals[off+4],
				Tangential:  vals[off+5],
				Fan:         vals[off+6] != 0,
				FanBisector: geom.V(vals[off+7], vals[off+8]),
			}
			count := int(vals[off+9])
			off += 10
			for _, q := range blayer.InsertRay(&r, ctx.bl, count) {
				out = append(out, q.X, q.Y)
			}
		}
		return out, nil
	case kindBLLeaf:
		if len(ctx.annuli) == 0 {
			return nil, errNoAnnuli
		}
		region := project.Rect{MinX: vals[1], MaxX: vals[2], MinY: vals[3], MaxY: vals[4]}
		coords := vals[5:]
		pts := make([]geom.Point, len(coords)/2)
		for i := range pts {
			pts[i] = geom.Pt(coords[2*i], coords[2*i+1])
		}
		if len(pts) < 3 {
			return submesh{}.encode(), nil
		}
		res, err := delaunay.Triangulate(delaunay.Input{Points: pts, Sorted: true, Frame: frame})
		if err != nil {
			return nil, err
		}
		// Kept by exactly one leaf (the owner of the circumcenter), and only
		// inside a layer annulus.
		return blSubmesh(res, func(a, b, c geom.Point) bool {
			return region.Contains(geom.Circumcenter(a, b, c)) && inAnnuli(ctx.annuli, a, b, c)
		}).encode(), nil
	case kindTransition, kindInviscid:
		np := int(vals[1])
		ns := int(vals[2])
		nh := int(vals[3])
		off := 4
		in := delaunay.Input{
			Frame:    frame,
			Points:   make([]geom.Point, 0, np),
			Segments: make([][2]int32, 0, ns),
			Holes:    make([]geom.Point, 0, nh),
		}
		for i := 0; i < np; i++ {
			in.Points = append(in.Points, geom.Pt(vals[off+2*i], vals[off+2*i+1]))
		}
		off += 2 * np
		for i := 0; i < ns; i++ {
			in.Segments = append(in.Segments, [2]int32{int32(vals[off+2*i]), int32(vals[off+2*i+1])})
		}
		off += 2 * ns
		for i := 0; i < nh; i++ {
			in.Holes = append(in.Holes, geom.Pt(vals[off+2*i], vals[off+2*i+1]))
		}
		res, err := delaunay.TriangulateRefined(in, qualityFor(size, ctx.slope))
		if err != nil {
			return nil, err
		}
		return regionSubmesh(res.Points, res.Triangles, in.Points).encode(), nil
	default:
		return nil, fmt.Errorf("core: unknown task kind %v", vals[0])
	}
}

// taskResult carries one task's output floats to the root by reference.
// On a real interconnect the result would be EncodeFloats(append([ID],
// vals...)), so its wire size is 8*(1+len(vals)) bytes whatever the vector
// holds: an encoded submesh or a ray batch's coordinates.
type taskResult struct {
	id   int32
	vals []float64
}

func (r *taskResult) TaskID() int32  { return r.id }
func (r *taskResult) WireBytes() int { return 8 * (1 + len(r.vals)) }

// runMeshPhase runs one meshing stage's tasks through runPhase and returns
// each task's result floats indexed by task ID. It adds what only the
// meshing stages have: the per-task span and TaskMeasure. Tasks and
// results move through the in-process fabric by reference; every transfer
// is accounted at the size its serialized form would occupy, so the wire
// statistics match a byte-serialized run exactly.
func runMeshPhase(rc *RunCtx, stage string, tasks []loadbal.Task, tctx taskCtx) ([][]float64, error) {
	tr := rc.tracer
	// Each task writes only its own slot, and the phase's ranks are joined
	// before the slice is read.
	measures := make([]TaskMeasure, len(tasks))
	results, err := runPhase(rc, stage, tasks, func(c *mpi.Comm, task loadbal.Task) ([]float64, error) {
		var sp trace.Span
		if tr.Enabled() {
			sp = tr.Begin(c.Rank(), trace.CatTask, taskKindName(task.Vals))
		}
		t0 := time.Now()
		vals, perr := processTaskCtx(task.Vals, tctx)
		dt := time.Since(t0)
		// A meshing task's result leads with its counts; a ray batch makes
		// points, not triangles.
		tris := 0
		if perr == nil && int(task.Vals[0]) != kindRayBatch {
			tris = int(vals[subTriangles])
		}
		if tr.Enabled() {
			sp.End(trace.I("id", int(task.ID)), trace.F("cost", task.Cost), trace.I("tris", tris))
			tr.Metrics().Observe("task.seconds", dt.Seconds())
		}
		if perr != nil {
			return nil, perr
		}
		measures[task.ID] = TaskMeasure{
			Seconds:       dt.Seconds(),
			Bytes:         int64(8 * len(task.Vals)),
			BoundaryLayer: task.BoundaryLayer,
			Triangles:     tris,
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	rc.stats.Tasks = append(rc.stats.Tasks, measures...)
	return results, nil
}
