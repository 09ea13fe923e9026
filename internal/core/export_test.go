package core

// Bridges for the external core_test package, which must sit outside
// package core to import internal/adapt (adapt imports core).

import (
	"context"
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
		out := &Result{}
		rc := &RunCtx{ctx: context.Background(), cfg: cfg, stats: &out.Stats, res: out}
		for _, ph := range phases {
			results, err := runPhase(rc, ph.stage, ph.tasks, func(_ *mpi.Comm, task loadbal.Task) ([]float64, error) {
				return processTaskCtx(task.Vals, tctx)
			})
			if err != nil {
				return err
			}
			list := make([]loadbal.Result, len(results))
			for id, vals := range results {
				list[id] = &taskResult{id: int32(id), vals: vals}
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

// SubmeshToMesh decodes one meshing task's result vector and assembles it
// the way the root's merges do.
func SubmeshToMesh(vals []float64) (*mesh.Mesh, error) {
	b := mesh.NewBuilder()
	if err := addSubmeshes(b, [][]float64{vals}); err != nil {
		return nil, err
	}
	return b.Mesh(), nil
}

// RealSubmeshes returns one real result vector of each meshing kind, from
// tasks a few points large: the fuzzer minimizes every input it keeps, in
// time cubic in the length, so a seed must be a few hundred bytes. The
// boundary-layer leaf is the first eight points of a Figure 8 leaf; the
// transition and inviscid tasks refine a unit square to one interior point.
func RealSubmeshes(t testing.TB) [][]float64 {
	t.Helper()
	tasks, tctx := fig08Tasks(t)
	leaf := append([]float64(nil), tasks[0].Vals[:5+2*8]...)
	sq, segs := unitSquare()
	tctx.size = sizing.Uniform(0.3)
	var out [][]float64
	for _, vals := range [][]float64{
		leaf,
		regionTaskVals(kindTransition, sq, segs, nil),
		regionTaskVals(kindInviscid, sq, segs, nil),
	} {
		r, err := processTaskCtx(vals, tctx)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, nt, _ := submeshCounts(r); nt == 0 {
			t.Fatalf("seed task of kind %v made no triangle", vals[0])
		}
		out = append(out, r)
	}
	return out
}
