package delaunay

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pamg2d/internal/geom"
)

// computeCavityScan is the cavity search as it was before the visited
// marks: membership is a linear scan of the cavity list. It stays here as
// the reference computeCavityInto is held to, element for element.
func (t *Triangulation) computeCavityScan(p geom.Point, loc location, s *cavScratch) {
	s.cavityTris = s.cavityTris[:0]
	s.cavityEdges = s.cavityEdges[:0]
	inCavity := func(ti int32) bool { return slices.Contains(s.cavityTris, ti) }
	s.stack = s.stack[:0]
	push := func(ti int32) {
		if ti == invalid || t.tris[ti].Dead || inCavity(ti) {
			return
		}
		s.cavityTris = append(s.cavityTris, ti)
		s.stack = append(s.stack, ti)
	}
	push(loc.t)
	if loc.kind == locEdge && !t.tris[loc.t].C[loc.e] {
		push(t.tris[loc.t].N[loc.e])
	}
	for len(s.stack) > 0 {
		ti := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		tr := t.tris[ti]
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if tr.C[e] || nb == invalid || t.tris[nb].Dead || inCavity(nb) {
				continue
			}
			ntr := t.tris[nb]
			if geom.InCircle(t.pts[ntr.V[0]], t.pts[ntr.V[1]], t.pts[ntr.V[2]], p) > 0 {
				s.cavityTris = append(s.cavityTris, nb)
				s.stack = append(s.stack, nb)
			}
		}
	}
	for _, ti := range s.cavityTris {
		tr := t.tris[ti]
		for e := int32(0); e < 3; e++ {
			nb := tr.N[e]
			if nb != invalid && !t.tris[nb].Dead && inCavity(nb) && !tr.C[e] {
				continue
			}
			var te int32 = -1
			if nb != invalid {
				te = t.edgeIndex(nb, tr.V[(e+1)%3], tr.V[e])
			}
			s.cavityEdges = append(s.cavityEdges, cavityEdge{a: tr.V[e], b: tr.V[(e+1)%3], t: nb, te: te, c: tr.C[e], outside: tr.Outside})
		}
	}
}

// cavityDiff locates p, runs both searches and requires the same triangles
// and the same boundary edges in the same order (the order fixes the new
// triangles' ids). It reports the location kind, and inserts p afterwards
// when insert is set so the next query sees a different topology.
func cavityDiff(t *testing.T, tr *Triangulation, p geom.Point, insert bool) locKind {
	t.Helper()
	loc := tr.locate(p)
	if loc.kind == locVertex || loc.kind == locOutside {
		return loc.kind
	}
	var want cavScratch
	tr.computeCavityScan(p, loc, &want)
	tr.computeCavity(p, loc)
	if !slices.Equal(tr.scratch.cavityTris, want.cavityTris) {
		t.Fatalf("point %v: cavity triangles %v, linear scan %v", p, tr.scratch.cavityTris, want.cavityTris)
	}
	if !slices.Equal(tr.scratch.cavityEdges, want.cavityEdges) {
		t.Fatalf("point %v: cavity edges %v, linear scan %v", p, tr.scratch.cavityEdges, want.cavityEdges)
	}
	if insert {
		if _, err := tr.InsertPoint(p); err != nil {
			t.Fatalf("insert %v: %v", p, err)
		}
	}
	return loc.kind
}

func TestCavityMatchesLinearScan(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
		for i := 0; i < 1500; i++ {
			cavityDiff(t, tr, geom.Pt(rng.Float64(), rng.Float64()), true)
		}
	})

	// Two hundred rays off a gently curved surface, extruded to the same
	// geometric heights: layer after layer of cocircular trapezoids at
	// aspect ratios up to 130, inserted x-sorted as the pipeline does.
	t.Run("boundary-layer", func(t *testing.T) {
		var pts []geom.Point
		for i := 0; i < 200; i++ {
			x := 0.004 * float64(i)
			origin := geom.Pt(x, 0.05*math.Sin(3*x))
			normal := geom.Vec{X: -0.15 * math.Cos(3*x), Y: 1}.Unit()
			h := 3e-5
			for k := 0; k < 24; k++ {
				pts = append(pts, origin.Add(normal.Scale(h)))
				h *= 1.15
			}
		}
		slices.SortFunc(pts, func(a, b geom.Point) int {
			return cmp.Or(cmp.Compare(a.X, b.X), cmp.Compare(a.Y, b.Y))
		})
		tr := NewCap(geom.BBoxOf(pts), len(pts))
		for _, p := range pts {
			cavityDiff(t, tr, p, true)
		}
	})

	// Midpoints of lattice edges are exactly on them: both triangles of
	// the edge seed the cavity.
	t.Run("on edges", func(t *testing.T) {
		tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(8, 8)})
		for i := 0; i <= 8; i++ {
			for j := 0; j <= 8; j++ {
				cavityDiff(t, tr, geom.Pt(float64(i), float64(j)), true)
			}
		}
		onEdge := 0
		for i := 0; i < 8; i++ {
			for j := 0; j <= 8; j++ {
				if cavityDiff(t, tr, geom.Pt(float64(i)+0.5, float64(j)), true) == locEdge {
					onEdge++
				}
			}
		}
		if onEdge < 60 {
			t.Errorf("only %d of 72 midpoints were located on an edge", onEdge)
		}
	})

	// A constrained zigzag through a cloud: cavities stop at it, and a
	// point exactly on a constrained edge seeds one side only.
	t.Run("constrained", func(t *testing.T) {
		in := squareInput(fuzzCloud(9, 600))
		base := int32(len(in.Points))
		for i := 0; i <= 8; i++ {
			in.Points = append(in.Points, geom.Pt(float64(i)/8, 0.5+0.25*float64(i%2)))
		}
		for i := int32(0); i < 8; i++ {
			in.Segments = append(in.Segments, [2]int32{base + i, base + i + 1})
		}
		tr, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(10))
		onConstraint := 0
		for i := 0; i < 800; i++ {
			p := geom.Pt(rng.Float64(), 0.4+0.5*rng.Float64())
			if i%4 == 0 {
				// Exactly on the zigzag's first leg, (0, 0.5) to (1/8, 0.75).
				x := float64(rng.Intn(1<<20)) / (1 << 23)
				p = geom.Pt(x, 0.5+2*x)
			}
			loc := tr.locate(p)
			if loc.kind == locEdge && tr.tris[loc.t].C[loc.e] {
				onConstraint++
			}
			// Constraint splits go through insertOnConstraint; the search
			// is compared either way, the insertion is left to the rest.
			cavityDiff(t, tr, p, loc.kind == locInside)
		}
		if onConstraint < 50 {
			t.Errorf("only %d queries fell on a constrained edge", onConstraint)
		}
	})

	// The epoch wraps: the marks a search left at epoch 1 must not read as
	// members when the counter comes round to 1 again.
	t.Run("epoch wraparound", func(t *testing.T) {
		rng := rand.New(rand.NewSource(6))
		tr := New(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)})
		for i := 0; i < 300; i++ {
			cavityDiff(t, tr, geom.Pt(rng.Float64(), rng.Float64()), true)
		}
		p := geom.Pt(0.5, 0.5)
		tr.marks = triMarks{}
		cavityDiff(t, tr, p, false) // p's cavity is marked 1
		tr.marks.epoch = math.MaxUint32 - 1
		cavityDiff(t, tr, geom.Pt(0.25, 0.75), false)
		cavityDiff(t, tr, p, false)
		if tr.marks.epoch != 1 {
			t.Fatalf("epoch %d two searches after %d, want 1", tr.marks.epoch, uint32(math.MaxUint32-1))
		}
		cavityDiff(t, tr, p, true)
		if err := tr.checkInvariants(true); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBuildParallelMarksPerStripe bounds what the concurrent engine
// allocates beyond the sequential build. A mark array is one word per
// triangle; the engine may hold one per stripe, never one per pending
// point (32 to 256 plans a batch), which is what keeping the marks inside
// cavScratch would cost.
func TestBuildParallelMarksPerStripe(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 20000)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64(), rng.Float64())
	}
	in := Input{Points: pts}
	allocated := func(build func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var tr *Triangulation
	seq := allocated(func() {
		var err error
		if tr, err = Build(in); err != nil {
			t.Fatal(err)
		}
	})
	par := allocated(func() {
		if _, _, err := BuildParallel(in, ParallelOptions{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	})
	markBytes := uint64(4 * cap(tr.tris))
	// Beyond the sequential build, measured: 16 arrays' worth — the two
	// stripes' marks, ten for the two claim arrays the selection sweep
	// regrows by append, the rest plans and per-round closures. Per-plan
	// marks would add 32 (the smallest batch) on top.
	if extra := int64(par) - int64(seq); extra > int64(24*markBytes) {
		t.Errorf("BuildParallel allocated %d bytes, Build %d: %d more, over 24 mark arrays of %d",
			par, seq, extra, markBytes)
	} else {
		t.Logf("sequential %d B, parallel %d B, mark array %d B", seq, par, markBytes)
	}
}
