package core

// Bridges for the external core_test package, which must sit outside
// package core to import internal/adapt (adapt imports core).

import (
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/sizing"
)

var (
	EncodeResultList = encodeResultList
	DecodeResultList = decodeResultList
	AppendRecord     = appendRecord
)

const (
	KindTransition = kindTransition
	KindInviscid   = kindInviscid
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
		tasks []loadbal.Task
	}{
		{StageBLTriangulation, tasks[:4]}, // small seeds keep the fuzzer's mutations cheap
		{StageInviscid, []loadbal.Task{
			{ID: 0, Cost: 1, Vals: regionTaskVals(kindTransition, sq, segs, nil)},
			{ID: 1, Cost: 1, Vals: regionTaskVals(kindInviscid, sq, segs, nil)},
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
			for id, vals := range results {
				list[id] = &taskResult{id: int32(id), seconds: measures[id].Seconds, vals: vals}
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

// SubmeshToMesh decodes one meshing task's result vector and assembles it
// the way the boundary-layer merge does, outer-boundary extraction
// included; the isotropic merge runs the same decode loop. It returns the
// mesh and the outer boundary's points and segments.
func SubmeshToMesh(vals []float64) (*mesh.Mesh, []geom.Point, [][2]int32, error) {
	b, pts, segs, err := mergeBoundaryLayer([][]float64{vals}, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	return b.Mesh(), pts, segs, nil
}

// leafWindow cuts a kindBLLeaf payload to its points from through to-1,
// keeping the path indices among them.
func leafWindow(vals []float64, from, to int) []float64 {
	path := vals[leafHeader : leafHeader+int(vals[leafPath])]
	out := append([]float64(nil), vals[:leafPath]...)
	out = append(out, 0)
	for _, i := range path {
		if i >= float64(from) && i < float64(to) {
			out = append(out, i-float64(from))
			out[leafPath]++
		}
	}
	return append(out, vals[leafHeader+len(path):][2*from:2*to]...)
}

// smallTasks returns one real payload of each kind a few points large —
// eight points of a Figure 8 leaf around its first path vertex, a unit
// square as a transition and as an inviscid task — and the context they
// run under. The fuzzer minimizes every input it keeps, in time cubic in
// the length, so a seed must be a few hundred bytes.
func smallTasks(t testing.TB) ([][]float64, taskCtx) {
	t.Helper()
	tasks, tctx := fig08Tasks(t)
	tctx.size = sizing.Uniform(0.3)
	sq, segs := unitSquare()
	leaf := tasks[0].Vals
	from := max(0, int(leaf[leafHeader])-4)
	return [][]float64{
		leafWindow(leaf, from, from+8),
		regionTaskVals(kindTransition, sq, segs, nil),
		regionTaskVals(kindInviscid, sq, segs, nil),
	}, tctx
}

// TaskPayloads returns one real payload of each task kind, a few points
// large, and processTaskCtx under the context they run in.
func TaskPayloads(t testing.TB) ([][]float64, func([]float64) ([]float64, error)) {
	t.Helper()
	seeds, tctx := smallTasks(t)
	return seeds, func(vals []float64) ([]float64, error) { return processTaskCtx(vals, tctx) }
}

// RealSubmeshes returns one real result vector of each meshing kind, from
// smallTasks' payloads: the boundary-layer leaf keeps a few triangles, the
// transition and inviscid tasks refine the unit square to one interior
// point.
func RealSubmeshes(t testing.TB) [][]float64 {
	t.Helper()
	tasks, tctx := smallTasks(t)
	var out [][]float64
	for _, vals := range tasks {
		r, err := processTaskCtx(vals, tctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, nt, _, _ := submeshCounts(r); nt == 0 {
			t.Fatalf("seed task of kind %v made no triangle", vals[0])
		}
		out = append(out, r)
	}
	return out
}

// runThroughBLMerge runs the pipeline through the bl-triangulation stage
// and returns the run state, whose builder then holds the boundary-layer
// mesh, and the stage's leaf tasks.
func runThroughBLMerge(t testing.TB, cfg Config) (*RunCtx, []loadbal.Task) {
	t.Helper()
	var tasks []loadbal.Task
	rc := newRunCtx(cfg)
	err := rc.runStages(append(pipeline[:3:3], &distStage{StageBLTriangulation, func(rc *RunCtx) ([]loadbal.Task, taskCtx, mergeFunc, error) {
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
