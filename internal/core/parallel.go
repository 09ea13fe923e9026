package core

import (
	"fmt"
	"math"
	"time"

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

// taskCtx carries the shared read-only context every task needs.
type taskCtx struct {
	frame geom.BBox
	size  sizing.Func
	slope float64 // size's delaunay.Quality.SizeSlope
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

// wireIndex converts a float of a vector that may come from another
// process to an index below n <= 2^31. Anything that is not such an index
// — NaN, infinite, negative, fractional, too large — is refused before the
// conversion, whose result Go leaves undefined for those.
func wireIndex(v float64, n int) (int32, bool) {
	if !(v >= 0 && v < float64(n)) {
		return 0, false
	}
	i := int32(v)
	return i, float64(i) == v
}

// finite reports whether both coordinates of p are finite.
func finite(p geom.Point) bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) && !math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// processTaskCtx executes a task's value vector under the stage's shared
// context and returns the submesh it produced. The vals slice is the
// task's Vals vector; it is only read, and one that does not decode is a
// *PayloadError.
func processTaskCtx(vals []float64, ctx taskCtx) (submesh, error) {
	if len(vals) == 0 {
		return submesh{}, badPayload(vals, "empty")
	}
	kind, ok := wireIndex(vals[0], kindInviscid+1)
	if !ok {
		return submesh{}, badPayload(vals, "unknown kind")
	}
	if kind == kindBLLeaf {
		return triangulateLeaf(vals, ctx)
	}
	return refineRegion(vals, ctx)
}

// triangulateLeaf triangulates a boundary-layer leaf and keeps the
// triangles it owns inside the layer annuli.
func triangulateLeaf(vals []float64, ctx taskCtx) (submesh, error) {
	if len(ctx.annuli) == 0 {
		return submesh{}, errNoAnnuli
	}
	if len(vals) < leafHeader {
		return submesh{}, badPayload(vals, "no region and path count in %d floats", len(vals))
	}
	nPath, ok := wireIndex(vals[leafPath], len(vals)-leafHeader+1)
	if !ok || (len(vals)-leafHeader-int(nPath))%2 != 0 {
		return submesh{}, badPayload(vals, "%v path indices leave no whole points in %d floats", vals[leafPath], len(vals))
	}
	coords := vals[leafHeader+nPath:]
	n := len(coords) / 2
	// The points, then the path points, in one allocation.
	buf := make([]geom.Point, n+int(nPath))
	pts, path := buf[:n:n], buf[n:]
	for i := range pts {
		p := geom.Pt(coords[2*i], coords[2*i+1])
		if !finite(p) || i > 0 && p.X < pts[i-1].X {
			return submesh{}, badPayload(vals, "point %d is %v: not finite, or left of its predecessor", i, p)
		}
		pts[i] = p
	}
	prev := int32(-1)
	for k, v := range vals[leafHeader : leafHeader+nPath] {
		i, ok := wireIndex(v, n)
		if !ok || i <= prev {
			return submesh{}, badPayload(vals, "path entry %d is %v: not an ascending index below %d", k, v, n)
		}
		path[k], prev = pts[i], i
	}
	if n < 3 {
		return submesh{}, nil
	}
	tr, err := delaunay.Build(delaunay.Input{Points: pts, Frame: ctx.frame})
	if err != nil {
		return submesh{}, err
	}
	res, nb := tr.ExtractNeighbors()
	// Kept by exactly one leaf (the owner of the circumcenter), and only
	// inside a layer annulus.
	region := project.Rect{MinX: vals[1], MaxX: vals[2], MinY: vals[3], MaxY: vals[4]}
	return blSubmesh(res, nb, path, func(a, b, c geom.Point) bool {
		return region.Contains(geom.Circumcenter(a, b, c)) && inAnnuli(ctx.annuli, a, b, c)
	}), nil
}

// refineRegion refines a transition input or an inviscid region.
func refineRegion(vals []float64, ctx taskCtx) (submesh, error) {
	if len(vals) < regionHeader {
		return submesh{}, badPayload(vals, "no point, segment and hole counts in %d floats", len(vals))
	}
	np, okP := wireIndex(vals[1], math.MaxInt32)
	ns, okS := wireIndex(vals[2], math.MaxInt32)
	nh, okH := wireIndex(vals[3], math.MaxInt32)
	if !okP || !okS || !okH || int64(len(vals)) != regionHeader+2*(int64(np)+int64(ns)+int64(nh)) {
		return submesh{}, badPayload(vals, "counts %v do not fill %d floats", vals[1:regionHeader], len(vals))
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
			return submesh{}, badPayload(vals, "point %d is %v", i, p)
		}
		in.Points = append(in.Points, p)
	}
	for i := 0; i < int(ns); i, off = i+1, off+2 {
		a, okA := wireIndex(vals[off], int(np))
		b, okB := wireIndex(vals[off+1], int(np))
		if !okA || !okB {
			return submesh{}, badPayload(vals, "segment %d is %v: not indices below %d", i, vals[off:off+2], np)
		}
		in.Segments = append(in.Segments, [2]int32{a, b})
	}
	for i := 0; i < int(nh); i, off = i+1, off+2 {
		h := geom.Pt(vals[off], vals[off+1])
		if !finite(h) {
			return submesh{}, badPayload(vals, "hole %d is %v", i, h)
		}
		in.Holes = append(in.Holes, h)
	}
	res, err := delaunay.TriangulateRefined(in, qualityFor(ctx.size, ctx.slope))
	if err != nil {
		return submesh{}, err
	}
	return regionSubmesh(res.Points, res.Triangles, in.Points), nil
}

// taskResult carries one task's submesh and its measured seconds to the
// root by reference. Its accounted wire size is the ID and the seconds at
// eight bytes each, then the submesh's floats in the task-result codec's
// layout (encodeTaskResultRef) at eight bytes each.
type taskResult struct {
	id      int32
	seconds float64
	sub     submesh
}

func (r *taskResult) TaskID() int32  { return r.id }
func (r *taskResult) WireBytes() int { return 16 + 8*r.sub.floats() }

// runTask executes one task on rank under the stage's shared context and
// times the kernel; the task span, when tracing, carries its triangles.
func runTask(rank int, task loadbal.Task, tctx taskCtx, tr *trace.Tracer) (*taskResult, error) {
	var sp trace.Span
	if tr.Enabled() {
		sp = tr.Begin(rank, trace.CatTask, taskKindName(task.Vals))
	}
	t0 := time.Now()
	sub, err := processTaskCtx(task.Vals, tctx)
	dt := time.Since(t0)
	if tr.Enabled() {
		sp.End(trace.I("id", int(task.ID)), trace.F("cost", task.Cost), trace.I("tris", len(sub.tris)))
		tr.Metrics().Observe("task.seconds", dt.Seconds())
	}
	if err != nil {
		return nil, err
	}
	return &taskResult{id: task.ID, seconds: dt.Seconds(), sub: sub}, nil
}
