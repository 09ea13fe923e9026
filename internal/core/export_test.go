package core

// Bridges for the external core_test package, which must sit outside
// package core to import internal/adapt (adapt imports core) and so get
// every result codec registered behind the result-list packer.

import (
	"context"
	"testing"

	"pamg2d/internal/audit"
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

// RealResultLists runs a meshing phase (the Figure 8 boundary-layer
// leaves) and the audit fan-out over a mesh with one flipped triangle on
// a 2-process loopback TCP fabric, and returns the result lists the
// worker process received in the agreement, re-encoded — the bytes that
// crossed the wire, since the packer's encoding is canonical.
func RealResultLists(t testing.TB) [][]byte {
	t.Helper()
	const ranks = 2
	res, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	flipped := &res.Mesh.Triangles[7]
	flipped[0], flipped[1] = flipped[1], flipped[0]
	snap := &audit.Snapshot{Mesh: res.Mesh}
	snap.Prepare()
	jobs, _ := audit.PlanJobs(snap, audit.Structural(), 256)
	tasks, tctx := fig08Tasks(t)
	tasks = tasks[:4] // small seeds keep the fuzzer's mutations cheap

	lists := make([][][]byte, ranks)
	errs := runOnFabric(t, ranks, func(i int, cl *mpi.Cluster) error {
		cfg := DefaultConfig()
		cfg.Ranks = ranks
		cfg.Fabric = cl
		out := &Result{}
		rc := &RunCtx{ctx: context.Background(), cfg: cfg, stats: &out.Stats, res: out}
		tris, err := runPhase(rc, StageBLTriangulation, tasks, func(_ *mpi.Comm, task loadbal.Task) (*taskResult, error) {
			out, err := processTaskCtx(task.Vals, tctx)
			return &taskResult{id: task.ID, vals: out}, err
		})
		if err != nil {
			return err
		}
		findings, err := auditFanOut(rc, snap, jobs)
		if err != nil {
			return err
		}
		meshList, err := packList(tris)
		if err != nil {
			return err
		}
		auditList, err := packList(findings)
		lists[cl.Rank()] = [][]byte{meshList, auditList}
		return err
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
	sq := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, 1), geom.Pt(0, 1)}
	segs := [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
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

func packList[R loadbal.Result](rs []R) ([]byte, error) {
	list := make([]loadbal.Result, len(rs))
	for i, r := range rs {
		list[i] = r
	}
	return encodeResultList(list)
}
