package core

import (
	"time"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// The task kinds.
const (
	kindBLLeaf = iota
	kindTransition
	kindInviscid
)

// meshTask is one distributed task's input: a boundary-layer leaf of the
// projection decomposition, or a transition or inviscid region to refine.
// Every process builds the same list in a stage's prepare, so a task is
// its index in it: the balancer moves only the header runPhase derives
// (loadbal.Task), and the executing rank reads the input from its own
// list. A task only reads its input, which may run twice (a re-queued
// task) and which the audit reads afterwards (rc.transInputs).
type meshTask struct {
	kind int
	cost float64
	leaf *project.Subdomain // kindBLLeaf
	in   delaunay.Input     // kindTransition, kindInviscid; the frame is the stage's
}

// kindName labels a task's trace span by its kind.
func (t *meshTask) kindName() string {
	switch t.kind {
	case kindBLLeaf:
		return "task/bl-leaf"
	case kindTransition:
		return "task/transition"
	}
	return "task/inviscid"
}

// bytes is the task's TaskMeasure.Bytes.
func (t *meshTask) bytes() int64 {
	if t.kind == kindBLLeaf {
		return 16 * int64(t.leaf.Len())
	}
	return 16 * int64(len(t.in.Points)+len(t.in.Segments)+len(t.in.Holes))
}

// blLeafTasks builds one kindBLLeaf task per leaf of the projection
// decomposition of n points, and counts the leaves holding each vertex id,
// saturating at 2. Leaves share only their dividing-path vertices, which
// Split deals to both halves: a vertex dealt to two or more leaves can be
// a corner in two leaves' results, any other is private to its leaf.
func blLeafTasks(leaves []*project.Subdomain, n int) ([]meshTask, []uint8) {
	dealt := make([]uint8, n)
	for _, leaf := range leaves {
		for _, v := range leaf.XS {
			if dealt[v.ID] < 2 {
				dealt[v.ID]++
			}
		}
	}
	tasks := make([]meshTask, len(leaves))
	for i, leaf := range leaves {
		leaf.DropYSorted()
		tasks[i] = meshTask{kind: kindBLLeaf, cost: float64(leaf.Len()), leaf: leaf}
	}
	return tasks, dealt
}

// taskCtx carries the shared read-only context every task needs.
type taskCtx struct {
	frame geom.BBox
	size  sizing.Func
	slope float64 // size's delaunay.Quality.SizeSlope
	// annuli are the layer regions a boundary-layer leaf filters its
	// triangles by; every process builds them from its own rc.layers.
	annuli []annulus
	// dealt counts the leaves holding each boundary-layer vertex id,
	// saturating at 2 (blLeafTasks): a leaf's path vertices are its
	// vertices dealt twice.
	dealt []uint8
}

// processTask executes a task under the stage's shared context in the
// executing rank's kernel workspace and returns the submesh it produced.
// The submesh shares no memory with the workspace, which the rank's next
// task builds over.
func processTask(t *meshTask, ctx taskCtx, ws *delaunay.Triangulation) (submesh, error) {
	if t.kind == kindBLLeaf {
		return triangulateLeaf(t.leaf, ctx, ws)
	}
	return refineRegion(t.in, ctx, ws)
}

// triangulateLeaf triangulates a boundary-layer leaf's x-sorted points in
// ws and keeps the triangles it owns inside the layer annuli.
func triangulateLeaf(leaf *project.Subdomain, ctx taskCtx, ws *delaunay.Triangulation) (submesh, error) {
	if len(ctx.annuli) == 0 {
		return submesh{}, errNoAnnuli
	}
	n, nPath := len(leaf.XS), 0
	for _, v := range leaf.XS {
		if ctx.dealt[v.ID] > 1 {
			nPath++
		}
	}
	// The points, then the path points in the same order, in one
	// allocation.
	pts := make([]geom.Point, n, n+nPath)
	path := pts[n:n]
	for i, v := range leaf.XS {
		pts[i] = v.P
		if ctx.dealt[v.ID] > 1 {
			path = append(path, v.P)
		}
	}
	pts = pts[:n:n]
	if n < 3 {
		return submesh{}, nil
	}
	if err := ws.Build(delaunay.Input{Points: pts, Frame: ctx.frame}); err != nil {
		return submesh{}, err
	}
	res, nb := ws.ExtractNeighbors()
	// Kept by exactly one leaf (the owner of the circumcenter), and only
	// inside a layer annulus.
	return blSubmesh(res, nb, path, func(a, b, c geom.Point) bool {
		return leaf.Region.Contains(geom.Circumcenter(a, b, c)) && inAnnuli(ctx.annuli, a, b, c)
	}), nil
}

// refineRegion refines a transition input or an inviscid region in the
// stage's frame, in ws.
func refineRegion(in delaunay.Input, ctx taskCtx, ws *delaunay.Triangulation) (submesh, error) {
	in.Frame = ctx.frame
	res, err := refineIn(ws, in, qualityFor(ctx.size, ctx.slope))
	if err != nil {
		return submesh{}, err
	}
	return regionSubmesh(res.Points, res.Triangles, in.Points), nil
}

// refineIn builds in into the workspace ws, refines it to q and extracts
// the mesh.
func refineIn(ws *delaunay.Triangulation, in delaunay.Input, q delaunay.Quality) (*delaunay.Result, error) {
	if err := ws.Build(in); err != nil {
		return nil, err
	}
	if err := ws.Refine(q); err != nil {
		return nil, err
	}
	return ws.Extract(), nil
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

// runTask executes task id on rank in the rank's workspace ws under the
// stage's shared context and times the kernel; the task span, when
// tracing, carries its triangles.
func runTask(rank int, id int32, t *meshTask, tctx taskCtx, ws *delaunay.Triangulation, tr *trace.Tracer) (*taskResult, error) {
	var sp trace.Span
	if tr.Enabled() {
		sp = tr.Begin(rank, trace.CatTask, t.kindName())
	}
	t0 := time.Now()
	sub, err := processTask(t, tctx, ws)
	dt := time.Since(t0)
	if tr.Enabled() {
		sp.End(trace.I("id", int(id)), trace.F("cost", t.cost), trace.I("tris", len(sub.tris)))
		tr.Metrics().Observe("task.seconds", dt.Seconds())
	}
	if err != nil {
		return nil, err
	}
	return &taskResult{id: id, seconds: dt.Seconds(), sub: sub}, nil
}
