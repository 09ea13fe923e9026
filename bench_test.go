package pamg2d

// One benchmark per algorithm figure of the paper, plus the in-text
// measurements and the ablation studies listed in DESIGN.md section 5.
// Benchmarks that reproduce a *result* rather than a *speed* report the
// result through b.ReportMetric so `go test -bench` output carries the
// reproduced numbers next to the timings. The evaluation's studies
// (Figures 11, 12 and 16) are computed once, by cmd/figures.

import (
	"io"
	"sort"
	"testing"

	"pamg2d/internal/adt"
	"pamg2d/internal/airfoil"
	"pamg2d/internal/benchcfg"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/perfmodel"
	"pamg2d/internal/project"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
)

// benchConfig is the shared scaled-down configuration: NACA 0012,
// moderately fine boundary layer, rank-2 pipeline.
func benchConfig() core.Config {
	return benchcfg.PushButton()
}

// BenchmarkFig02SurfaceNormals measures the surface-normal computation of
// Figure 2 at the paper's stated input size (1,500 surface vertices).
func BenchmarkFig02SurfaceNormals(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 750, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	pts := g.Surfaces[0].Points
	b.ReportMetric(float64(len(pts)), "surface-verts")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blayer.VertexNormals(pts)
	}
}

// BenchmarkFig04CuspFans measures boundary-layer generation with the fan
// of curved rays at the sharp trailing edge (Figures 3 and 4) and reports
// how many fan rays the cusps emitted.
func BenchmarkFig04CuspFans(b *testing.B) {
	cfg := airfoil.ThreeElement(96)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	var fans int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		fans = 0
		for _, l := range layers {
			fans += l.Stats.FanRays
		}
	}
	b.ReportMetric(float64(fans), "fan-rays")
}

// BenchmarkFig05IsotropyCutoff measures point insertion with the smooth
// transition to isotropy (Figure 5) and reports the spread in layer counts
// that produces the variable boundary-layer height.
func BenchmarkFig05IsotropyCutoff(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	p.MaxLayers = 100
	var minL, maxL int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		minL, maxL = 1<<30, 0
		for _, pts := range layers[0].Points {
			if len(pts) < minL {
				minL = len(pts)
			}
			if len(pts) > maxL {
				maxL = len(pts)
			}
		}
	}
	b.ReportMetric(float64(minL), "min-layers")
	b.ReportMetric(float64(maxL), "max-layers")
}

// BenchmarkFig08Decompose128 measures the projection-based decomposition
// of a boundary-layer point set into 128 independent Delaunay subdomains
// (Figure 8).
func BenchmarkFig08Decompose128(b *testing.B) {
	pts, err := benchcfg.Fig08Points()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(len(pts)), "bl-points")
	var leaves int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		root := project.New(pts)
		b.StartTimer()
		ls, _ := project.Decompose(root, benchcfg.Fig08Options())
		leaves = len(ls)
	}
	b.ReportMetric(float64(leaves), "subdomains")
}

// BenchmarkFig10Decouple measures the graded Delaunay decoupling of the
// inviscid region into balanced subdomains (Figures 9 and 10) and reports
// the cost imbalance (max/mean).
func BenchmarkFig10Decouple(b *testing.B) {
	nb := geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(2, 1)}
	ff := geom.BBox{Min: geom.Pt(-30, -30), Max: geom.Pt(32, 30)}
	size := sizing.NewGraded([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, 0.05, 0.2, 3).Area
	var imbalance float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quads, err := decouple.InitialQuadrants(nb, ff, size)
		if err != nil {
			b.Fatal(err)
		}
		regions := decouple.Decouple(quads[:], size, 64)
		var sum, max float64
		for _, r := range regions {
			c := r.Cost(size)
			sum += c
			if c > max {
				max = c
			}
		}
		imbalance = max / (sum / float64(len(regions)))
	}
	b.ReportMetric(imbalance, "max/mean-cost")
}

// BenchmarkFig13IntersectionResolution measures the hierarchical self- and
// multi-element intersection resolution on the three-element configuration
// and reports the resolved counts (Figure 13).
func BenchmarkFig13IntersectionResolution(b *testing.B) {
	cfg := airfoil.ThreeElement(96)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.3}
	p.MaxLayers = 30
	var self, multi int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layers := blayer.Generate(g, p)
		self, multi = 0, 0
		for _, l := range layers {
			self += l.Stats.SelfIntersections
			multi += l.Stats.MultiIntersections
		}
	}
	b.ReportMetric(float64(self), "self-intersections")
	b.ReportMetric(float64(multi), "multi-intersections")
}

// BenchmarkSeqEfficiency compares the pipeline at one rank against the
// direct sequential baseline (the paper's 196 s vs Triangle's 192 s, a 98%
// sequential efficiency).
func BenchmarkSeqEfficiency(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	b.Run("pipeline-1rank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Generate(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("triangle-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.SequentialBaseline(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeshWriters compares ASCII and binary mesh output (the paper's
// 9-minute ASCII write versus faster binary output).
func BenchmarkMeshWriters(b *testing.B) {
	cfg := benchConfig()
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ascii", func(b *testing.B) {
		b.SetBytes(int64(res.Mesh.NumTriangles()))
		for i := 0; i < b.N; i++ {
			if err := res.Mesh.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.SetBytes(int64(res.Mesh.NumTriangles()))
		for i := 0; i < b.N; i++ {
			if err := res.Mesh.WriteBinary(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Ablation benchmarks (DESIGN.md section 5) ---

// BenchmarkAblationInsertionOrder compares two bulk-insertion orders on the
// same boundary-layer leaves: x order, the order the paper keeps subdomain
// vertices in for Triangle, inserted one point at a time, against
// Triangulate's own Hilbert-curve order. Both give the same triangles up
// to exactly cocircular ties; x order digs larger cavities along its
// sweep front.
func BenchmarkAblationInsertionOrder(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	layers := blayer.Generate(g, blayer.DefaultParams())
	root := project.New(layers[0].AllPoints())
	leaves, _ := project.Decompose(root, project.Options{MinVerts: 400})
	var inputs [][]geom.Point
	for _, l := range leaves {
		inputs = append(inputs, l.Points())
	}
	b.Run("x-order", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pts := range inputs {
				t := delaunay.NewCap(geom.BBoxOf(pts), len(pts))
				for _, p := range pts { // a leaf lists its points in x order
					if _, err := t.InsertPoint(p); err != nil && err != delaunay.ErrDuplicate {
						b.Fatal(err)
					}
				}
				t.Carve(nil)
				t.Extract()
			}
		}
	})
	b.Run("hilbert", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, pts := range inputs {
				if _, err := delaunay.Triangulate(delaunay.Input{Points: pts}); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblationADT compares the alternating-digital-tree extent-box
// pruning against brute-force all-pairs intersection checks over the same
// ray set (the paper's n log n versus n^2 claim). Both variants end with
// identical exact segment tests; only the pruning differs.
func BenchmarkAblationADT(b *testing.B) {
	// An L-shaped body producing many converging rays.
	var pts []geom.Point
	corners := []geom.Point{
		geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4),
	}
	for i := 0; i < len(corners); i++ {
		a, c := corners[i], corners[(i+1)%len(corners)]
		for k := 0; k < 256; k++ {
			pts = append(pts, a.Lerp(c, float64(k)/256))
		}
	}
	g := &pslg.Graph{Surfaces: []pslg.Loop{{Name: "L", Points: pts}}}
	p := blayer.DefaultParams()
	p.Growth = growth.Geometric{H0: 0.02, Ratio: 1.3}
	p.MaxLayers = 12
	layers := blayer.Generate(g, p)
	rays := layers[0].Rays
	segs := make([]geom.Segment, len(rays))
	full := p.Growth.Offset(p.MaxLayers - 1)
	for i := range rays {
		segs[i] = geom.Segment{A: rays[i].Origin, B: rays[i].Origin.Add(rays[i].Dir.Scale(full))}
	}
	b.Run("adt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			world := geom.EmptyBBox()
			boxes := make([]geom.BBox, len(segs))
			for j, s := range segs {
				boxes[j] = s.BBox()
				world = world.Union(boxes[j])
			}
			tree := adt.Build(world, boxes)
			count := 0
			for x := range segs {
				tree.VisitOverlapping(segs[x].BBox(), func(y int) bool {
					if y > x && geom.SegmentsIntersect(segs[x], segs[y]) == geom.SegCross {
						count++
					}
					return true
				})
			}
			_ = count
		}
	})
	b.Run("brute-force", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count := 0
			for x := 0; x < len(segs); x++ {
				for y := x + 1; y < len(segs); y++ {
					if geom.SegmentsIntersect(segs[x], segs[y]) == geom.SegCross {
						count++
					}
				}
			}
			_ = count
		}
	})
}

// BenchmarkAblationSchedule compares the paper's largest-first priority
// scheduling against FIFO under the same work-stealing protocol, reporting
// the simulated makespans.
func BenchmarkAblationSchedule(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 256
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	net := perfmodel.FDRInfiniband()
	var priority, fifo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priority = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: true, Prefetch: true}).Makespan
		fifo = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: false, Prefetch: true}).Makespan
	}
	b.ReportMetric(priority*1000, "priority-ms")
	b.ReportMetric(fifo*1000, "fifo-ms")
}

// BenchmarkAblationCutAxis compares the shortest-bbox-edge cut rule
// against always-vertical cuts; skinny subdomains from always-vertical
// cuts are slower to triangulate.
func BenchmarkAblationCutAxis(b *testing.B) {
	cfg := airfoil.Single(airfoil.NACA0012, 512, 30)
	g, err := cfg.Graph()
	if err != nil {
		b.Fatal(err)
	}
	p := blayer.DefaultParams()
	pts := blayer.Generate(g, p)[0].AllPoints()
	run := func(b *testing.B, force bool) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			root := project.New(pts)
			b.StartTimer()
			leaves, _ := project.Decompose(root, project.Options{MinVerts: 2, MaxDepth: 9, ForceVertical: force})
			for _, l := range leaves {
				if l.Len() < 3 {
					continue
				}
				if _, err := delaunay.Triangulate(delaunay.Input{Points: l.Points()}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("shortest-edge-rule", func(b *testing.B) { run(b, false) })
	b.Run("always-vertical", func(b *testing.B) { run(b, true) })
}

// auditNsPerTriangle bounds the audit stage in TestAuditedWorkloads. The
// stage costs 1.7–2.5 us per triangle on the 2-CPU reference host (medians
// of 40 isolated runs at 4.3k triangles; two reached 3.4 and 4.1), up to
// 3.7 us beside the rest of `go test ./...`, and 2.2–2.6 us on bench/'s
// 32k–191k-triangle meshes: flat in mesh size, and the bound a multiple that
// host load does not reach. bench/'s core.wall_audit_1r_s is the fine gauge.
const auditNsPerTriangle = 10000

// TestAuditedWorkloads is the audit acceptance gate: the PushButton and
// Figure 8 workloads must generate with zero audit violations at 1 and 4
// ranks, and on PushButton/1-rank the audit stage must cost less than
// auditNsPerTriangle per triangle of the mesh — the median of five runs
// after the first, which warms the process. The cost is stated per
// triangle, not as a share of the run, so that shortening the rest of the
// pipeline cannot fail it.
func TestAuditedWorkloads(t *testing.T) {
	fig08 := core.DefaultConfig()
	fig08.Geometry = airfoil.Single(airfoil.NACA0012, 256, 30)
	fig08.BL = blayer.DefaultParams() // the Fig08Points boundary layer
	workloads := []struct {
		name string
		cfg  core.Config
	}{
		{"PushButton", benchConfig()},
		{"Fig08", fig08},
	}
	for _, w := range workloads {
		for _, ranks := range []int{1, 4} {
			if testing.Short() && (w.name == "Fig08" || ranks > 1) {
				continue
			}
			cfg := w.cfg
			cfg.Ranks = ranks
			cfg.Audit = true
			res, err := core.Generate(cfg)
			if err != nil {
				t.Fatalf("%s/%d ranks: audited run failed: %v", w.name, ranks, err)
			}
			if !res.Stats.Audit.Ok() {
				t.Fatalf("%s/%d ranks: violations: %v", w.name, ranks, res.Stats.Audit.Violations)
			}
			if w.name == "PushButton" && ranks == 1 {
				perTri := make([]float64, 5)
				for i := range perTri {
					if res, err = core.Generate(cfg); err != nil {
						t.Fatal(err)
					}
					perTri[i] = float64(res.Stats.StageWall(core.StageAudit).Nanoseconds()) / float64(res.Stats.TotalTriangles)
				}
				sort.Float64s(perTri)
				if med := perTri[len(perTri)/2]; med >= auditNsPerTriangle {
					t.Errorf("audit stage costs %.0f ns per triangle (median of %d), want < %d", med, len(perTri), auditNsPerTriangle)
				}
				t.Logf("PushButton/1-rank audit stage, ns per triangle of %d, sorted: %.0f", res.Stats.TotalTriangles, perTri)
			}
		}
	}
}

// BenchmarkAblationPrefetch isolates the paper's two-thread design: the
// communicator requesting work before the mesher runs dry versus a
// single-threaded mesher that blocks for every transfer.
func BenchmarkAblationPrefetch(b *testing.B) {
	cfg := benchConfig()
	cfg.Ranks = 1
	cfg.SubdomainsPerRank = 256
	res, err := core.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	// A slower interconnect makes the overlap visible at this scale.
	net := perfmodel.Network{Latency: 1e-4, Bandwidth: 1e8}
	var with, without float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: true, Prefetch: true}).Makespan
		without = perfmodel.SimulatePolicy(tasks, 32, net, 0, perfmodel.Policy{LargestFirst: true, Prefetch: false}).Makespan
	}
	b.ReportMetric(with*1000, "prefetch-ms")
	b.ReportMetric(without*1000, "blocking-ms")
}
