package core

import (
	"fmt"
	"math"
	"time"

	"pamg2d/internal/blayer"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
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

// blLeafTasks builds one kindBLLeaf task per leaf of the projection
// decomposition of n points. Leaves share only their dividing-path
// vertices, which Split deals to both halves: a vertex dealt to two or
// more leaves can be a corner in two leaves' results, any other is private
// to its leaf, and each task lists its own path vertices.
func blLeafTasks(leaves []*project.Subdomain, n int) []loadbal.Task {
	dealt := make([]uint8, n) // leaves holding each vertex id, saturating at 2
	for _, leaf := range leaves {
		for _, v := range leaf.XS {
			if dealt[v.ID] < 2 {
				dealt[v.ID]++
			}
		}
	}
	tasks := make([]loadbal.Task, len(leaves))
	for i, leaf := range leaves {
		leaf.DropYSorted()
		tasks[i] = loadbal.Task{
			ID:            int32(i),
			Cost:          float64(leaf.Len()),
			BoundaryLayer: true,
			Vals:          blLeafVals(leaf, dealt),
		}
	}
	return tasks
}

// Header slots of a kindBLLeaf payload: the kind and the owned
// circumcenter region lead, then the number of path indices that follow.
const (
	leafPath   = 5
	leafHeader = 6
)

// blLeafVals builds a projection-decomposition leaf task:
//
//	[kind, minX, maxX, minY, maxY, nPath, path indices … (nPath), x0, y0 … (2·n)]
//
// the owned circumcenter region, the ascending indices of the leaf's path
// vertices (those dealt counts in two or more leaves), then the x-sorted
// points. The slice is allocated at its exact final size and travels by
// reference through the balancer; over a wire the Task codec ships it as
// little-endian float64s.
func blLeafVals(leaf *project.Subdomain, dealt []uint8) []float64 {
	nPath := 0
	for _, v := range leaf.XS {
		if dealt[v.ID] > 1 {
			nPath++
		}
	}
	vals := make([]float64, 0, leafHeader+nPath+2*len(leaf.XS))
	vals = append(vals, kindBLLeaf,
		leaf.Region.MinX, leaf.Region.MaxX, leaf.Region.MinY, leaf.Region.MaxY, float64(nPath))
	for i, v := range leaf.XS {
		if dealt[v.ID] > 1 {
			vals = append(vals, float64(i))
		}
	}
	for _, v := range leaf.XS {
		vals = append(vals, v.P.X, v.P.Y)
	}
	return vals
}

// regionHeader is the header of a kindTransition or kindInviscid payload.
const regionHeader = 4

// regionTaskVals builds a transition input or inviscid region border task
// at its exact final size:
//
//	[kind, np, ns, nh, x0, y0 … (2·np), a0, b0 … (2·ns), hole seeds … (2·nh)]
func regionTaskVals(kind int, pts []geom.Point, segs [][2]int32, holes []geom.Point) []float64 {
	vals := make([]float64, 0, regionHeader+2*len(pts)+2*len(segs)+2*len(holes))
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

// rayFloats is the size of one ray in a kindRayBatch payload.
const rayFloats = 10

// rayBatchVals builds a ray-insertion task at its exact final size:
//
//	[kind, nRays, then per ray: origin, direction, MaxLen, Tangential, fan, fan bisector, planned count]
func rayBatchVals(rays []blayer.Ray, counts []int) []float64 {
	vals := make([]float64, 0, 2+rayFloats*len(rays))
	vals = append(vals, kindRayBatch, float64(len(rays)))
	for i, r := range rays {
		fan := 0.0
		if r.Fan {
			fan = 1
		}
		vals = append(vals, r.Origin.X, r.Origin.Y, r.Dir.X, r.Dir.Y,
			r.MaxLen, r.Tangential, fan, r.FanBisector.X, r.FanBisector.Y,
			float64(counts[i]))
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

// PayloadError reports a task payload no encoder of its kind could have
// written. A stolen task's payload crosses the wire from another process,
// so processTaskCtx checks every count and index against the vector before
// it reads or converts anything.
type PayloadError struct {
	Kind   float64 // the payload's first float; NaN for an empty payload
	Reason string
}

func (e *PayloadError) Error() string {
	return fmt.Sprintf("core: task payload of kind %v: %s", e.Kind, e.Reason)
}

func badPayload(vals []float64, format string, args ...any) error {
	kind := math.NaN()
	if len(vals) > 0 {
		kind = vals[0]
	}
	return &PayloadError{Kind: kind, Reason: fmt.Sprintf(format, args...)}
}

// processTaskCtx executes a task's value vector under the stage's shared
// context and returns the produced floats: an encoded submesh for meshing
// tasks, flat point coordinates for ray-insertion batches. The vals slice
// is the task's Vals vector; it is only read, and one that does not decode
// is a *PayloadError.
func processTaskCtx(vals []float64, ctx taskCtx) ([]float64, error) {
	if len(vals) == 0 {
		return nil, badPayload(vals, "empty")
	}
	kind, ok := wireIndex(vals[0], kindRayBatch+1)
	if !ok {
		return nil, badPayload(vals, "unknown kind")
	}
	switch kind {
	case kindRayBatch:
		return insertRayBatch(vals, ctx.bl)
	case kindBLLeaf:
		return triangulateLeaf(vals, ctx)
	default:
		return refineRegion(vals, ctx)
	}
}

// insertRayBatch inserts the planned points along each ray of a batch.
func insertRayBatch(vals []float64, p blayer.Params) ([]float64, error) {
	if len(vals) < 2 {
		return nil, badPayload(vals, "no ray count")
	}
	nRays, ok := wireIndex(vals[1], (len(vals)-2)/rayFloats+1)
	if !ok || 2+rayFloats*int(nRays) != len(vals) {
		return nil, badPayload(vals, "%v rays do not fill %d floats", vals[1], len(vals))
	}
	// The planned per-ray counts are in the payload, so the output size is
	// known up front: two coordinates per planned point.
	planned := 0
	for off := 2; off < len(vals); off += rayFloats {
		count, ok := wireIndex(vals[off+9], p.MaxLayers+1)
		if !ok {
			return nil, badPayload(vals, "ray at %d plans %v points, not a count up to %d", off, vals[off+9], p.MaxLayers)
		}
		planned += int(count)
	}
	out := make([]float64, 0, 2*planned)
	for off := 2; off < len(vals); off += rayFloats {
		r := blayer.Ray{
			Origin:      geom.Pt(vals[off], vals[off+1]),
			Dir:         geom.V(vals[off+2], vals[off+3]),
			MaxLen:      vals[off+4],
			Tangential:  vals[off+5],
			Fan:         vals[off+6] != 0,
			FanBisector: geom.V(vals[off+7], vals[off+8]),
		}
		for _, q := range blayer.InsertRay(&r, p, int(vals[off+9])) {
			out = append(out, q.X, q.Y)
		}
	}
	return out, nil
}

// triangulateLeaf triangulates a boundary-layer leaf and keeps the
// triangles it owns inside the layer annuli.
func triangulateLeaf(vals []float64, ctx taskCtx) ([]float64, error) {
	if len(ctx.annuli) == 0 {
		return nil, errNoAnnuli
	}
	if len(vals) < leafHeader {
		return nil, badPayload(vals, "no region and path count in %d floats", len(vals))
	}
	nPath, ok := wireIndex(vals[leafPath], len(vals)-leafHeader+1)
	if !ok || (len(vals)-leafHeader-int(nPath))%2 != 0 {
		return nil, badPayload(vals, "%v path indices leave no whole points in %d floats", vals[leafPath], len(vals))
	}
	coords := vals[leafHeader+nPath:]
	n := len(coords) / 2
	// The points, then the path points, in one allocation.
	buf := make([]geom.Point, n+int(nPath))
	pts, path := buf[:n:n], buf[n:]
	for i := range pts {
		p := geom.Pt(coords[2*i], coords[2*i+1])
		if !finite(p) || i > 0 && p.X < pts[i-1].X {
			return nil, badPayload(vals, "point %d is %v: not finite, or left of its predecessor", i, p)
		}
		pts[i] = p
	}
	prev := int32(-1)
	for k, v := range vals[leafHeader : leafHeader+nPath] {
		i, ok := wireIndex(v, n)
		if !ok || i <= prev {
			return nil, badPayload(vals, "path entry %d is %v: not an ascending index below %d", k, v, n)
		}
		path[k], prev = pts[i], i
	}
	if n < 3 {
		return submesh{}.encode(), nil
	}
	res, err := delaunay.Triangulate(delaunay.Input{Points: pts, Frame: ctx.frame})
	if err != nil {
		return nil, err
	}
	// Kept by exactly one leaf (the owner of the circumcenter), and only
	// inside a layer annulus.
	region := project.Rect{MinX: vals[1], MaxX: vals[2], MinY: vals[3], MaxY: vals[4]}
	return blSubmesh(res, path, func(a, b, c geom.Point) bool {
		return region.Contains(geom.Circumcenter(a, b, c)) && inAnnuli(ctx.annuli, a, b, c)
	}).encode(), nil
}

// refineRegion refines a transition input or an inviscid region.
func refineRegion(vals []float64, ctx taskCtx) ([]float64, error) {
	if len(vals) < regionHeader {
		return nil, badPayload(vals, "no point, segment and hole counts in %d floats", len(vals))
	}
	np, okP := wireIndex(vals[1], math.MaxInt32)
	ns, okS := wireIndex(vals[2], math.MaxInt32)
	nh, okH := wireIndex(vals[3], math.MaxInt32)
	if !okP || !okS || !okH || int64(len(vals)) != regionHeader+2*(int64(np)+int64(ns)+int64(nh)) {
		return nil, badPayload(vals, "counts %v do not fill %d floats", vals[1:regionHeader], len(vals))
	}
	in := delaunay.Input{
		Frame:    ctx.frame,
		Points:   make([]geom.Point, 0, np),
		Segments: make([][2]int32, 0, ns),
		Holes:    make([]geom.Point, 0, nh),
	}
	off := regionHeader
	for i := 0; i < int(np); i, off = i+1, off+2 {
		p := geom.Pt(vals[off], vals[off+1])
		if !finite(p) {
			return nil, badPayload(vals, "point %d is %v", i, p)
		}
		in.Points = append(in.Points, p)
	}
	for i := 0; i < int(ns); i, off = i+1, off+2 {
		a, okA := wireIndex(vals[off], int(np))
		b, okB := wireIndex(vals[off+1], int(np))
		if !okA || !okB {
			return nil, badPayload(vals, "segment %d is %v: not indices below %d", i, vals[off:off+2], np)
		}
		in.Segments = append(in.Segments, [2]int32{a, b})
	}
	for i := 0; i < int(nh); i, off = i+1, off+2 {
		h := geom.Pt(vals[off], vals[off+1])
		if !finite(h) {
			return nil, badPayload(vals, "hole %d is %v", i, h)
		}
		in.Holes = append(in.Holes, h)
	}
	res, err := delaunay.TriangulateRefined(in, qualityFor(ctx.size, ctx.slope))
	if err != nil {
		return nil, err
	}
	return regionSubmesh(res.Points, res.Triangles, in.Points).encode(), nil
}

// taskResult carries one task's output floats and its measured seconds
// to the root by reference. Its accounted wire size is 8*(2+len(vals))
// bytes — the ID, the seconds and each float at eight bytes — whatever the
// vector holds: an encoded submesh or a ray batch's coordinates.
type taskResult struct {
	id      int32
	seconds float64
	vals    []float64
}

func (r *taskResult) TaskID() int32  { return r.id }
func (r *taskResult) WireBytes() int { return 8 * (2 + len(r.vals)) }

// runTask executes one task on rank under the stage's shared context and
// times the kernel; the task span, when tracing, carries its triangles.
func runTask(rank int, task loadbal.Task, tctx taskCtx, tr *trace.Tracer) (*taskResult, error) {
	var sp trace.Span
	if tr.Enabled() {
		sp = tr.Begin(rank, trace.CatTask, taskKindName(task.Vals))
	}
	t0 := time.Now()
	vals, err := processTaskCtx(task.Vals, tctx)
	dt := time.Since(t0)
	if tr.Enabled() {
		tris := 0
		if err == nil {
			tris = taskTriangles(task.Vals, vals)
		}
		sp.End(trace.I("id", int(task.ID)), trace.F("cost", task.Cost), trace.I("tris", tris))
		tr.Metrics().Observe("task.seconds", dt.Seconds())
	}
	if err != nil {
		return nil, err
	}
	return &taskResult{id: task.ID, seconds: dt.Seconds(), vals: vals}, nil
}

// taskTriangles reads a task's triangle count off its result: a meshing
// task's result leads with its counts; a ray batch makes points, not
// triangles. A header that does not decode reads 0 (the merge that
// decodes the result fails the stage).
func taskTriangles(task, vals []float64) int {
	if len(task) == 0 || int(task[0]) == kindRayBatch || len(vals) <= subTriangles {
		return 0
	}
	n, _ := wireIndex(vals[subTriangles], math.MaxInt32)
	return int(n)
}
