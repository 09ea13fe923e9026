package core

// Bridges for the external core_test package, which must sit outside
// package core to import internal/adapt (adapt imports core).

import (
	"slices"
	"testing"

	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/project"
	"pamg2d/internal/sizing"
)

var (
	EncodeResultList = encodeResultList
	DecodeResultList = decodeResultList
	AppendRecord     = appendRecord
)

// unitSquare is a transition or inviscid task's smallest real input: a
// unit square, refined under sizing.Uniform(0.3) to one interior point.
func unitSquare() ([]geom.Point, [][2]int32) {
	return []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)},
		[][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
}

// RealResultLists runs two meshing phases on a 2-process loopback TCP
// fabric — four Figure 8 boundary-layer leaves, then a transition and an
// inviscid task on a unit square — and returns the result lists the
// worker process received in their agreements, re-encoded: the bytes that
// crossed the wire, since the packer's encoding is canonical.
func RealResultLists(t testing.TB) [][]byte {
	t.Helper()
	const ranks = 2
	tasks, tctx := fig08Tasks(t)
	tctx.size = sizing.Uniform(0.3)
	sq, segs := unitSquare()
	phases := []struct {
		stage string
		tasks []meshTask
	}{
		{StageBLTriangulation, tasks[:4]}, // small seeds keep the fuzzer's mutations cheap
		{StageInviscid, []meshTask{
			{kind: kindTransition, cost: 1, in: delaunay.Input{Points: sq, Segments: segs}},
			{kind: kindInviscid, cost: 1, in: delaunay.Input{Points: sq, Segments: segs}},
		}},
	}

	lists := make([][][]byte, ranks)
	errs := runOnFabric(t, ranks, func(i int, cl *mpi.Cluster) error {
		cfg := DefaultConfig()
		cfg.Ranks = ranks
		cfg.Fabric = cl
		rc := newRunCtx(cfg)
		for _, ph := range phases {
			results, err := runPhase(rc, ph.stage, ph.tasks, tctx)
			if err != nil {
				return err
			}
			measures := rc.stats.Tasks[len(rc.stats.Tasks)-len(results):]
			list := make([]loadbal.Result, len(results))
			for id, sub := range results {
				list[id] = &taskResult{id: int32(id), seconds: measures[id].Seconds, sub: sub}
			}
			b, err := encodeResultList(list)
			if err != nil {
				return err
			}
			lists[cl.Rank()] = append(lists[cl.Rank()], b)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", r, err)
		}
	}
	return lists[1]
}

// ResultSeconds is a decoded task result's measured seconds.
func ResultSeconds(r loadbal.Result) float64 { return r.(*taskResult).seconds }

// RecordRoundTrip decodes the phase record rank from sent and re-encodes
// what it accepted.
func RecordRoundTrip(b []byte, from int) ([]byte, error) {
	var bs loadbal.Stats
	msgs, bytes, err := decodeRecord(b, from, &bs)
	if err != nil {
		return nil, err
	}
	return appendRecord(nil, from, bs, msgs, bytes), nil
}

// SubmeshToMesh decodes one meshing task's result frame through the
// task-result codec and assembles its submesh the way the boundary-layer
// merge does, outer-boundary extraction included; the isotropic merge adds
// submeshes the same way. It returns the mesh and the outer boundary's
// points and segments.
func SubmeshToMesh(frame []byte) (*mesh.Mesh, []geom.Point, [][2]int32, error) {
	r, err := decodeTaskResultRef(frame)
	if err != nil {
		return nil, nil, nil, err
	}
	b, pts, segs := mergeBoundaryLayer([]submesh{r.(*taskResult).sub}, nil)
	return b.Mesh(), pts, segs, nil
}

// resultFrame is the task-result codec's frame of sub, as task 0 measuring
// no time.
func resultFrame(sub submesh) []byte { return encodeTaskResultRef(&taskResult{sub: sub}, nil) }

// smallTasks returns one real task of each kind a few points large —
// eight points of a Figure 8 leaf around its first path vertex, a unit
// square as a transition and as an inviscid task — and the context they
// run under. The fuzzer minimizes every input it keeps, in time cubic in
// the length, so a seed must be a few hundred bytes.
func smallTasks(t testing.TB) ([]meshTask, taskCtx) {
	t.Helper()
	tasks, tctx := fig08Tasks(t)
	tctx.size = sizing.Uniform(0.3)
	sq, segs := unitSquare()
	leaf := tasks[0].leaf
	first := slices.IndexFunc(leaf.XS, func(v project.Vertex) bool { return tctx.dealt[v.ID] > 1 })
	from := max(0, first-4)
	window := &project.Subdomain{XS: leaf.XS[from : from+8], Region: leaf.Region}
	return []meshTask{
		{kind: kindBLLeaf, cost: 8, leaf: window},
		{kind: kindTransition, cost: 1, in: delaunay.Input{Points: sq, Segments: segs}},
		{kind: kindInviscid, cost: 1, in: delaunay.Input{Points: sq, Segments: segs}},
	}, tctx
}

// RegionTask runs a transition (transition true) or inviscid task on the
// polygon pts, closed by a loop of segments, under a uniform size of 0.3
// in a frame around the unit square, and returns its submesh as a result
// frame (resultFrame) whether or not it failed.
func RegionTask(transition bool, pts []geom.Point) ([]byte, error) {
	n := len(pts)
	segs := make([][2]int32, n)
	for k := range segs {
		segs[k] = [2]int32{int32(k), int32((k + 1) % n)}
	}
	task := meshTask{kind: kindInviscid, in: delaunay.Input{Points: pts, Segments: segs}}
	if transition {
		task.kind = kindTransition
	}
	tctx := taskCtx{frame: geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 2)}, size: sizing.Uniform(0.3)}
	sub, err := processTask(&task, tctx, new(delaunay.Triangulation))
	return resultFrame(sub), err
}

// RealSubmeshes returns one real result frame of each meshing kind, from
// smallTasks: the boundary-layer leaf keeps a few triangles, the
// transition and inviscid tasks refine the unit square to one interior
// point.
func RealSubmeshes(t testing.TB) [][]byte {
	t.Helper()
	tasks, tctx := smallTasks(t)
	var out [][]byte
	ws := new(delaunay.Triangulation)
	for i := range tasks {
		sub, err := processTask(&tasks[i], tctx, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(sub.tris) == 0 {
			t.Fatalf("seed task of kind %d made no triangle", tasks[i].kind)
		}
		out = append(out, resultFrame(sub))
	}
	return out
}

// runThroughBLMerge runs the pipeline through the bl-triangulation stage
// and returns the run state, whose builder then holds the boundary-layer
// mesh, and the stage's leaf tasks.
func runThroughBLMerge(t testing.TB, cfg Config) (*RunCtx, []meshTask) {
	t.Helper()
	var tasks []meshTask
	rc := newRunCtx(cfg)
	err := rc.runStages(append(pipeline[:3:3], &distStage{StageBLTriangulation, func(rc *RunCtx) ([]meshTask, taskCtx, mergeFunc, error) {
		tk, tctx, merge, err := prepareBLTriangulation(rc)
		tasks = tk
		return tk, tctx, merge, err
	}}))
	if err != nil {
		t.Fatal(err)
	}
	return rc, tasks
}

// interned reports, for each of the first n points of b's mesh, whether b
// interned it: AddPoint finds an interned point at its own index and
// appends any other as new, so the probe leaves b unfit for further use.
func interned(b *mesh.Builder, n int) []bool {
	pts := b.Mesh().Points[:n:n]
	out := make([]bool, n)
	for i, p := range pts {
		out[i] = b.AddPoint(p) == int32(i)
	}
	return out
}
