package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/growth"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
)

// smallConfig is a fast NACA 0012 configuration for tests.
func smallConfig(ranks int) Config {
	cfg := DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, 32, 10)
	cfg.BL = blayer.Params{
		Growth:         growth.Geometric{H0: 2e-3, Ratio: 1.3},
		MaxLayers:      12,
		MaxAngleDeg:    25,
		CuspAngleDeg:   60,
		FanSpacingDeg:  20,
		FanCurving:     0.5,
		IsotropyFactor: 1.0,
		TrimFactor:     1.0,
	}
	cfg.SurfaceH0 = 0.06
	cfg.Gradation = 0.3
	cfg.HMax = 3
	cfg.Ranks = ranks
	cfg.SubdomainsPerRank = 2
	return cfg
}

// newRunCtx is the run state Engine.Run builds for cfg, for tests that
// drive stages by hand: like Engine.Run it attaches the in-process fabric
// when cfg has none.
func newRunCtx(cfg Config) *RunCtx {
	if cfg.Fabric == nil {
		cfg.Fabric = mpi.InProcess(cfg.Ranks)
	}
	res := &Result{}
	return &RunCtx{ctx: context.Background(), cfg: cfg, stats: &res.Stats, res: res}
}

func TestGenerateSingleRank(t *testing.T) {
	res, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.NumTriangles() < 500 {
		t.Errorf("mesh has only %d triangles", res.Mesh.NumTriangles())
	}
	if res.Stats.BLTriangles == 0 || res.Stats.InviscidTris == 0 || res.Stats.TransitionTris == 0 {
		t.Errorf("phase counts: %+v", res.Stats)
	}
	if res.Stats.TotalTriangles != res.Mesh.NumTriangles() {
		t.Error("stats triangle count mismatch")
	}
}

func TestGenerateMultiRankMatchesSingle(t *testing.T) {
	r1, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Generate(smallConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	// The decompositions differ slightly with rank count (decoupling
	// target scales with ranks), but the boundary-layer part is identical
	// and totals must be in the same ballpark.
	if r1.Stats.BLTriangles != r4.Stats.BLTriangles {
		t.Errorf("BL triangles differ: %d vs %d (the BL mesh is deterministic)",
			r1.Stats.BLTriangles, r4.Stats.BLTriangles)
	}
	ratio := float64(r4.Mesh.NumTriangles()) / float64(r1.Mesh.NumTriangles())
	if ratio < 0.8 || ratio > 1.3 {
		t.Errorf("triangle counts diverge: %d vs %d", r1.Mesh.NumTriangles(), r4.Mesh.NumTriangles())
	}
}

func TestGenerateCoversDomain(t *testing.T) {
	cfg := smallConfig(2)
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Total area = far-field box minus airfoil area.
	g, err := cfg.Geometry.Graph()
	if err != nil {
		t.Fatal(err)
	}
	ffArea := g.Farfield.SignedArea()
	bodyArea := 0.0
	for i := range g.Surfaces {
		bodyArea += math.Abs(g.Surfaces[i].SignedArea())
	}
	// The boundary-layer surface refinement may slightly alter the body
	// polygon; tolerance is generous.
	want := ffArea - bodyArea
	got := res.Mesh.Area()
	if math.Abs(got-want) > 0.01*want {
		t.Errorf("mesh area %v, want ~%v", got, want)
	}
}

func TestGenerateAnisotropy(t *testing.T) {
	res, err := Generate(smallConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	q := res.Mesh.Quality()
	// The boundary layer must contain strongly anisotropic elements.
	if q.MaxAspectRatio < 5 {
		t.Errorf("max aspect ratio %v; boundary layer missing?", q.MaxAspectRatio)
	}
}

func TestGenerateTaskMeasurements(t *testing.T) {
	res, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Tasks) < 5 {
		t.Fatalf("only %d task measurements", len(res.Stats.Tasks))
	}
	blTasks, invTasks := 0, 0
	for _, tm := range res.Stats.Tasks {
		if tm.Seconds < 0 {
			t.Error("negative task time")
		}
		if tm.BoundaryLayer {
			blTasks++
		} else {
			invTasks++
		}
	}
	if blTasks == 0 || invTasks == 0 {
		t.Errorf("task mix: %d BL, %d inviscid", blTasks, invTasks)
	}
	if res.Stats.Messages == 0 || res.Stats.BytesOnWire == 0 {
		t.Error("no communication recorded")
	}
}

func TestSequentialBaseline(t *testing.T) {
	cfg := smallConfig(1)
	m, err := SequentialBaseline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline must produce no more triangles than the pipeline (the
	// decoupling paths only add elements), and be within 25%.
	nb, np := m.NumTriangles(), res.Mesh.NumTriangles()
	if nb > np {
		t.Errorf("baseline %d triangles > pipeline %d; decoupling should only add", nb, np)
	}
	if float64(np-nb) > 0.25*float64(np) {
		t.Errorf("baseline %d and pipeline %d diverge too much", nb, np)
	}
}

func TestIsotropicBaselineHasMoreElements(t *testing.T) {
	cfg := smallConfig(1)
	aniso, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := IsotropicBaseline(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Even at a relaxed resolution factor, resolving the near-wall region
	// isotropically must cost substantially more elements (the paper
	// measures 14.7x at factor 1).
	ratio := float64(iso.NumTriangles()) / float64(aniso.Mesh.NumTriangles())
	if ratio < 1.5 {
		t.Errorf("isotropic/anisotropic element ratio %v; want > 1.5 at factor 4 (paper: 14.7 at factor 1)", ratio)
	}
	// And the isotropic mesh must satisfy the 20.7 degree bound away from
	// the airfoil's own small input angles.
	q := iso.Quality()
	if q.MaxAspectRatio > 50 {
		t.Errorf("isotropic mesh contains highly anisotropic elements (aspect %v)", q.MaxAspectRatio)
	}
}

func TestGenerateThreeElement(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Geometry = airfoil.ThreeElement(36)
	cfg.Geometry.FarfieldChords = 8
	res, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mesh.NumTriangles() < 1000 {
		t.Errorf("three-element mesh has only %d triangles", res.Mesh.NumTriangles())
	}
	if len(res.Stats.BLLayerStats) != 3 {
		t.Errorf("expected 3 per-element BL stats, got %d", len(res.Stats.BLLayerStats))
	}
	fans := 0
	for _, s := range res.Stats.BLLayerStats {
		fans += s.FanRays
	}
	if fans == 0 {
		t.Error("three-element config must produce cusp fans")
	}
}

func TestNearBodyMustFitInFarfield(t *testing.T) {
	cfg := smallConfig(1)
	cfg.Geometry.FarfieldChords = 0.2 // far field too tight
	if _, err := Generate(cfg); err == nil {
		t.Error("near-body box outside the far field must fail")
	}
}

// TestEmptyBoundaryLayerIsRefused: a first layer taller than the surface
// spacing leaves every ray without a point. The run must stop where that
// is known, in ray insertion, with both numbers, not two stages later with
// "boundary-layer mesh has no outer boundary".
func TestEmptyBoundaryLayerIsRefused(t *testing.T) {
	for _, ranks := range []int{1, 2} {
		cfg := smallConfig(ranks)
		cfg.BL.Growth = growth.Geometric{H0: 0.2, Ratio: 1.3}
		_, err := Generate(cfg)
		var empty *EmptyBoundaryLayerError
		if !errors.As(err, &empty) {
			t.Fatalf("ranks %d: error %v, want an *EmptyBoundaryLayerError", ranks, err)
		}
		var pe *PhaseError
		if !errors.As(err, &pe) || pe.Stage != StageRayInsertion {
			t.Errorf("ranks %d: error %v, want it attributed to stage %s", ranks, err, StageRayInsertion)
		}
		if empty.FirstLayer != 0.2 || !(empty.SurfaceSpacing > 0 && empty.SurfaceSpacing < 0.2) || empty.Rays == 0 || empty.Layers != 12 {
			t.Errorf("ranks %d: %+v does not name the first layer height 0.2 and a smaller surface spacing", ranks, *empty)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	// Two runs of the same configuration must agree exactly: the pipeline
	// contains no randomness and no map-iteration-order dependence in any
	// quantity that reaches the mesh.
	cfg := smallConfig(3)
	r1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Mesh.NumTriangles() != r2.Mesh.NumTriangles() {
		t.Errorf("triangle counts differ: %d vs %d", r1.Mesh.NumTriangles(), r2.Mesh.NumTriangles())
	}
	if math.Abs(r1.Mesh.Area()-r2.Mesh.Area()) > 1e-12*r1.Mesh.Area() {
		t.Errorf("areas differ: %v vs %v", r1.Mesh.Area(), r2.Mesh.Area())
	}
	q1, q2 := r1.Mesh.Quality(), r2.Mesh.Quality()
	if q1.MinAngleDeg != q2.MinAngleDeg || q1.MaxAspectRatio != q2.MaxAspectRatio {
		t.Errorf("quality differs: %+v vs %+v", q1, q2)
	}
}

// TestDefaultsHaveOneValue: a config that leaves SubdomainsPerRank and
// NearBodyMargin zero meshes byte for byte like one that sets them to
// their documented defaults, 4 and 0.25, through Generate and through
// SequentialBaseline.
func TestDefaultsHaveOneValue(t *testing.T) {
	zero, explicit := smallConfig(2), smallConfig(2)
	zero.SubdomainsPerRank, zero.NearBodyMargin = 0, 0
	explicit.SubdomainsPerRank, explicit.NearBodyMargin = 4, 0.25
	encode := func(name string, cfg Config) []byte {
		res, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		base, err := SequentialBaseline(cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", name, err)
		}
		var buf bytes.Buffer
		if err := res.Mesh.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		if err := base.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode("zero", zero), encode("explicit", explicit)) {
		t.Error("zero SubdomainsPerRank and NearBodyMargin mesh differently from 4 and 0.25")
	}
}

// TestBLTriangleSetIndependentOfDepth: the boundary-layer triangles, the
// first Stats.BLTriangles of the mesh, form one set at projection depths 1
// to 6 (SubdomainsPerRank 1 to 64 at one rank) and in SequentialBaseline's
// single triangulation of all boundary-layer points (depth 0). Blelloch's
// dividing paths are Delaunay edges, so the leaves tile the one global
// triangulation. The three-element case is rotated by a fraction of a
// degree, the way the bench jitters it. The stock, axis-aligned
// airfoil.ThreeElement(64) keeps its 6,796 boundary-layer triangles at
// SubdomainsPerRank 4 and above, but as a different set: exactly
// cocircular points let two insertion orders pick different diagonals
// (ROADMAP item 6's symbolic tie-break).
func TestBLTriangleSetIndependentOfDepth(t *testing.T) {
	highlift := DefaultConfig()
	highlift.Geometry = airfoil.ThreeElement(64)
	const phi = 0.37 // degrees
	for i := range highlift.Geometry.Elements {
		pl := &highlift.Geometry.Elements[i].Place
		pl.AngleDeg -= phi
		pl.Offset = pl.Offset.Rotate(phi * math.Pi / 180)
	}
	blSet := func(m *mesh.Mesh, n int) string {
		return (&mesh.Mesh{Points: m.Points, Triangles: m.Triangles[:n]}).TriangleSetHash()
	}
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"small", smallConfig(1)}, {"default", DefaultConfig()}, {"highlift", highlift}} {
		cfg := c.cfg
		cfg.Ranks = 1
		var want string
		var n int
		for _, spr := range []int{1, 2, 4, 8, 16, 64} {
			cfg.SubdomainsPerRank = spr
			res, err := Generate(cfg)
			if err != nil {
				t.Fatalf("%s, %d subdomains: %v", c.name, spr, err)
			}
			got := blSet(res.Mesh, res.Stats.BLTriangles)
			if want == "" {
				want, n = got, res.Stats.BLTriangles
			} else if got != want || res.Stats.BLTriangles != n {
				t.Errorf("%s, %d subdomains: %d boundary-layer triangles with set %.12s, want %d with %.12s at 1",
					c.name, spr, res.Stats.BLTriangles, got, n, want)
			}
		}
		base, err := SequentialBaseline(cfg)
		if err != nil {
			t.Fatalf("%s baseline: %v", c.name, err)
		}
		if got := blSet(base, n); got != want {
			t.Errorf("%s: SequentialBaseline's first %d triangles have set %.12s, want %.12s", c.name, n, got, want)
		}
	}
}
