package delaunay

import (
	"math/rand"
	"reflect"
	"testing"

	"pamg2d/internal/geom"
)

// fuzzCloud builds a point cloud mixing uniform noise, clustered bursts,
// exact duplicates and cocircular grid points — the degenerate mix the
// concurrent engine must route through conflicts and the sequential
// fallback.
func fuzzCloud(seed int64, n int) []geom.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		switch rng.Intn(10) {
		case 0: // grid point: cocircular quadruples galore
			pts = append(pts, geom.Pt(float64(rng.Intn(8))/8, float64(rng.Intn(8))/8))
		case 1: // duplicate of an earlier point
			if len(pts) > 0 {
				pts = append(pts, pts[rng.Intn(len(pts))])
				continue
			}
			fallthrough
		case 2, 3: // tight cluster: adjacent cavities, heavy conflicts
			cx, cy := rng.Float64(), rng.Float64()
			for k := 0; k < 4 && len(pts) < n; k++ {
				pts = append(pts, geom.Pt(cx+rng.Float64()*1e-3, cy+rng.Float64()*1e-3))
			}
		default:
			pts = append(pts, geom.Pt(rng.Float64(), rng.Float64()))
		}
	}
	return pts
}

// squareInput wraps a cloud with a constrained square boundary so segment
// recovery and carving run after the parallel bulk insertion.
func squareInput(pts []geom.Point) Input {
	n := int32(len(pts))
	in := Input{Points: append([]geom.Point{
		geom.Pt(-0.5, -0.5), geom.Pt(1.5, -0.5), geom.Pt(1.5, 1.5), geom.Pt(-0.5, 1.5),
	}, pts...)}
	_ = n
	in.Segments = [][2]int32{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	return in
}

func TestBuildParallelOneWorkerIsSequential(t *testing.T) {
	in := squareInput(fuzzCloud(3, 400))
	seq, err := Triangulate(in)
	if err != nil {
		t.Fatal(err)
	}
	par, ps, err := TriangulateParallel(in, ParallelOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Rounds != 0 || ps.Workers != 1 {
		t.Fatalf("workers=1 must delegate to the sequential kernel, got stats %+v", ps)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("workers=1 result differs from the sequential kernel")
	}
}

func TestBuildParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	in := squareInput(fuzzCloud(7, 600))
	var want *Result
	for _, w := range []int{2, 3, 4, 8} {
		got, ps, err := TriangulateParallel(in, ParallelOptions{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ps.Rounds == 0 {
			t.Fatalf("workers=%d: engine did not run", w)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d topology differs from workers=2", w)
		}
	}
}

func TestBuildParallelInvariants(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		in := squareInput(fuzzCloud(seed, 500))
		tr, ps, err := BuildParallel(in, ParallelOptions{Workers: 4})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := tr.CheckDelaunay(true); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ps.Inserted+ps.Sequential == 0 {
			t.Fatalf("seed %d: no insertions recorded: %+v", seed, ps)
		}
		// The engine must account for every non-duplicate input point.
		res := tr.Extract()
		if len(res.Points) < 400 {
			t.Fatalf("seed %d: only %d points survive", seed, len(res.Points))
		}
	}
}

// TestBuildParallelStress hammers the concurrent engine on fuzzed clouds;
// under `go test -race` this is the data-race gate for the sharded
// scratch, the slot pre-assignment, and the atomic incidence stores.
func TestBuildParallelStress(t *testing.T) {
	seeds := []int64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, w := range []int{2, 4, 8} {
			in := squareInput(fuzzCloud(seed, 800))
			tr, _, err := BuildParallel(in, ParallelOptions{Workers: w})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
			if err := tr.CheckDelaunay(true); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, w, err)
			}
		}
	}
}

// TestParallelRoundInvariants drives the round loop directly with the
// per-round invariant check enabled, catching structural corruption in the
// exact round it appears rather than rounds later in segment recovery.
func TestParallelRoundInvariants(t *testing.T) {
	in := squareInput(fuzzCloud(11, 800))
	tr := NewCap(geom.BBoxOf(in.Points), len(in.Points))
	order := insertionOrder(in, tr)
	vmap := make([]int32, len(in.Points))
	ins := &parInserter{t: tr, workers: 2, debugCheck: true, debugFull: true}
	if err := ins.run(in.Points, order, vmap); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildParallel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 5000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	for _, w := range []int{1, 4} {
		b.Run(map[int]string{1: "kw1", 4: "kw4"}[w], func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := BuildParallel(Input{Points: pts}, ParallelOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
