package blayer

import (
	"math"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/pslg"
)

// refTurnAngle, refRefineSurface and refBuildRays are surface refinement
// and ray construction as they were while the turn angle at a vertex was
// taken from a fresh set of edge normals of the whole loop: the reference
// the shared-normals version must match bit for bit.
func refTurnAngle(pts []geom.Point, i int) float64 {
	n := len(pts)
	en := edgeNormals(pts)
	return en[(i+n-1)%n].AngleBetween(en[i])
}

func refRefineSurface(pts []geom.Point, p Params) []geom.Point {
	n := len(pts)
	vn := VertexNormals(pts)
	maxAngle := p.MaxAngleDeg * math.Pi / 180
	cusp := p.CuspAngleDeg * math.Pi / 180
	var out []geom.Point
	for i := 0; i < n; i++ {
		out = append(out, pts[i])
		j := (i + 1) % n
		ang := vn[i].AngleBetween(vn[j])
		if ang <= maxAngle {
			continue
		}
		if (refTurnAngle(pts, i) > cusp && Convex(pts, i)) || (refTurnAngle(pts, j) > cusp && Convex(pts, j)) {
			continue
		}
		m := int(math.Ceil(ang/maxAngle)) - 1
		for k := 1; k <= m; k++ {
			out = append(out, pts[i].Lerp(pts[j], float64(k)/float64(m+1)))
		}
	}
	return out
}

func refBuildRays(pts []geom.Point, p Params) []Ray {
	n := len(pts)
	vn := VertexNormals(pts)
	en := edgeNormals(pts)
	cusp := p.CuspAngleDeg * math.Pi / 180
	fanStep := p.FanSpacingDeg * math.Pi / 180
	var rays []Ray
	for i := 0; i < n; i++ {
		tangential := (pts[i].Dist(pts[(i+n-1)%n]) + pts[i].Dist(pts[(i+1)%n])) / 2
		turn := refTurnAngle(pts, i)
		if turn > cusp && Convex(pts, i) {
			from := en[(i+n-1)%n]
			k := max(int(math.Ceil(turn/fanStep))+1, 3)
			sign := 1.0
			if from.Rotate(turn).Sub(en[i]).Len() > from.Rotate(-turn).Sub(en[i]).Len() {
				sign = -1
			}
			for f := 0; f < k; f++ {
				dir := from.Rotate(sign * turn * (float64(f) / float64(k-1)))
				rays = append(rays, Ray{Origin: pts[i], Dir: dir.Unit(), MaxLen: math.Inf(1),
					Tangential: tangential, Fan: true, FanBisector: vn[i], SurfaceIdx: i})
			}
			continue
		}
		rays = append(rays, Ray{Origin: pts[i], Dir: vn[i], MaxLen: math.Inf(1), Tangential: tangential, SurfaceIdx: i})
	}
	return rays
}

// rayBits is every float of a ray as its bit pattern, so that equality is
// bit equality (and +Inf compares equal to itself).
func rayBits(r Ray) [10]uint64 {
	fan := 0.0
	if r.Fan {
		fan = 1
	}
	var out [10]uint64
	for i, v := range [10]float64{r.Origin.X, r.Origin.Y, r.Dir.X, r.Dir.Y, r.MaxLen, r.Tangential,
		fan, r.FanBisector.X, r.FanBisector.Y, float64(r.SurfaceIdx)} {
		out[i] = math.Float64bits(v)
	}
	return out
}

// nacaLoop1536 is the surface of the bench's naca-viscous size class.
func nacaLoop1536(t testing.TB) *pslg.Graph {
	t.Helper()
	g, err := airfoil.Single(airfoil.NACA0012, 768, 30).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Surfaces[0].Points); n != 1536 {
		t.Fatalf("surface has %d points, want 1536", n)
	}
	return g
}

// TestRaysMatchPerVertexNormals: taking the turn angle from the edge
// normals already in hand moves no bit of any ray, on a smooth single
// element and on the three-element configuration with its cusps, coves and
// fans.
func TestRaysMatchPerVertexNormals(t *testing.T) {
	three, err := airfoil.ThreeElement(64).Graph()
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	fans := 0
	for _, g := range []*pslg.Graph{nacaLoop1536(t), three} {
		for s := range g.Surfaces {
			pts := g.Surfaces[s].Points
			var st Stats
			got := buildRays(refineSurface(pts, p, &st), p, &st)
			want := refBuildRays(refRefineSurface(pts, p), p)
			if len(got) != len(want) {
				t.Fatalf("surface %d of %d points: %d rays, reference %d", s, len(pts), len(got), len(want))
			}
			for i := range got {
				if rayBits(got[i]) != rayBits(want[i]) {
					t.Fatalf("surface %d of %d points, ray %d: %+v, reference %+v", s, len(pts), i, got[i], want[i])
				}
			}
			fans += st.FanRays
		}
	}
	if fans == 0 {
		t.Error("no fan ray on any surface: the cusp branch went untested")
	}
}

// TestGenerateRaysAllocations: ray generation allocates per loop, not per
// vertex or per tree node, and a loop the convexity certificate covers
// builds no boxes and no tree. Each bound is the measured count plus two.
// The boxes and the tree are three allocations, which the fan-free circle
// must not make; the NACA loop makes them, since the last fan ray at its
// trailing edge is not certified.
func TestGenerateRaysAllocations(t *testing.T) {
	p := DefaultParams()
	for _, c := range []struct {
		name  string
		g     *pslg.Graph
		bound float64
	}{
		{"NACA 0012, 1,536 points", nacaLoop1536(t), 41 + 2},
		{"circle, 1,536 points", &pslg.Graph{Surfaces: []pslg.Loop{circleLoop(1536, 1)}}, 36 + 2},
	} {
		if allocs := testing.AllocsPerRun(3, func() { GenerateRays(c.g, p) }); allocs > c.bound {
			t.Errorf("GenerateRays allocates %.0f times on the %s loop; want at most %.0f", allocs, c.name, c.bound)
		}
	}
}
