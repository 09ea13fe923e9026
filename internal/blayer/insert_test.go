package blayer

import (
	"math"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
)

// refPlanCounts is PlanCounts as it was before the growth table: the
// growth function evaluated per ray and layer.
func refPlanCounts(l *Layer, p Params) []int {
	counts := make([]int, len(l.Rays))
	full := fullLength(p)
	for i := range l.Rays {
		r := &l.Rays[i]
		if r.MaxLen < full {
			l.Stats.TrimmedRays++
		}
		n := 0
		for k := 0; k < p.MaxLayers; k++ {
			if p.Growth.Offset(k) >= r.MaxLen {
				break
			}
			if p.IsotropyFactor > 0 && p.Growth.Spacing(k) >= p.IsotropyFactor*r.Tangential {
				break
			}
			n++
		}
		counts[i] = n
	}
	smoothCounts(counts, p.SmoothLayers)
	return counts
}

// TestInsertPointsMatchesPerCallGrowth: reading the growth from a table
// moves no bit of any inserted point, count or statistic against the
// per-call Offset/Spacing path (refPlanCounts, then InsertRay per ray), on
// the three-element configuration with its trimmed rays and curved fans.
func TestInsertPointsMatchesPerCallGrowth(t *testing.T) {
	g, err := airfoil.ThreeElement(64).Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []growth.Function{
		growth.Geometric{H0: 2e-4, Ratio: 1.2},
		growth.Polynomial{H0: 2e-4, Power: 1.7},
		growth.Adaptive{Near: growth.Geometric{H0: 2e-4, Ratio: 1.25}, Far: growth.Polynomial{H0: 2e-3, Power: 1.3}, Switch: 6},
	} {
		p := DefaultParams()
		p.Growth = gr
		p.SmoothLayers = 3
		layers := GenerateRays(g, p)
		points, trimmed := 0, 0
		for li, l := range layers {
			ref := *l
			counts := refPlanCounts(&ref, p)
			l.InsertPoints(p)
			if l.Stats.TrimmedRays != ref.Stats.TrimmedRays {
				t.Fatalf("%T layer %d: %d trimmed rays, reference %d", gr, li, l.Stats.TrimmedRays, ref.Stats.TrimmedRays)
			}
			for i := range l.Rays {
				want := InsertRay(&l.Rays[i], p, counts[i])
				got := l.Points[i]
				if len(got) != len(want) {
					t.Fatalf("%T layer %d ray %d: %d points, reference %d", gr, li, i, len(got), len(want))
				}
				for k := range got {
					if !samePoint(got[k], want[k]) {
						t.Fatalf("%T layer %d ray %d point %d: %v, reference %v", gr, li, i, k, got[k], want[k])
					}
				}
				points += len(got)
			}
			trimmed += l.Stats.TrimmedRays
		}
		if points == 0 || trimmed == 0 {
			t.Fatalf("%T: %d points, %d trimmed rays: the comparison saw too little", gr, points, trimmed)
		}
	}
}

func samePoint(a, b geom.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
