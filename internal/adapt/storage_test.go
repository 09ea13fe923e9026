package adapt

// Tests for the three invariants the pass's speed rests on: the log-tensor
// cache equals met[v].Log() bit for bit, the key sort is the stable
// priority order, and a rejected candidate leaves nothing in an
// evaluator's buffer — plus the allocation ceiling they buy.

import (
	"math"
	"sort"
	"testing"
	"unsafe"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
)

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// testEngine builds the engine Adapt would run, for tests that drive or
// inspect single passes.
func testEngine(t testing.TB, m *mesh.Mesh, f metric.Field, opt Options) *engine {
	t.Helper()
	tp, err := newTopo(m, f)
	if err != nil {
		t.Fatal(err)
	}
	return newEngine(tp, opt.withDefaults())
}

// blSpec is a boundary-layer field over the unit square's bottom wall: it
// refines toward y=0 and coarsens away from it, so one run commits every
// operator kind.
func blSpec(t testing.TB) func(geom.Point) metric.M {
	t.Helper()
	f, err := metric.ParseSpec("bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.2,grow=0.6")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func sameBits(a, b metric.M) bool {
	return math.Float64bits(a.XX) == math.Float64bits(b.XX) &&
		math.Float64bits(a.XY) == math.Float64bits(b.XY) &&
		math.Float64bits(a.YY) == math.Float64bits(b.YY)
}

// TestLogCacheCoherent: after every pass of a run that commits splits,
// midpoint collapses and smooths — the three writers of a vertex tensor —
// lmet[v] is met[v].Log() bit for bit at every live vertex. Once with
// Resample (the bench's path) and once with the per-vertex field alone,
// where new tensors come from metric.Interp.
func TestLogCacheCoherent(t *testing.T) {
	spec := blSpec(t)
	for _, tc := range []struct {
		name     string
		resample func(geom.Point) metric.M
	}{{"resample", spec}, {"interp", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			m := egrid(t, 12)
			e := testEngine(t, m, metric.Analytic(m, spec), Options{Resample: tc.resample, Workers: 2})
			splits, mids, smooths := 0, 0, 0
			for s := 0; s < e.opt.MaxSweeps; s++ {
				for _, k := range sweepKinds {
					e.pass(k)
					for _, p := range e.sel {
						switch {
						case p.Kind == opSplit:
							splits++
						case p.Kind == opCollapse && p.Mid:
							mids++
						case p.Kind == opSmooth:
							smooths++
						}
					}
					tp := e.tp
					if len(tp.lmet) != len(tp.met) {
						t.Fatalf("sweep %d %v: %d cached logs for %d tensors", s, k, len(tp.lmet), len(tp.met))
					}
					for v := range tp.met {
						if tp.vtri[v] >= 0 && !sameBits(tp.lmet[v], tp.met[v].Log()) {
							t.Fatalf("sweep %d %v: vertex %d: cached log %+v, met.Log() %+v",
								s, k, v, tp.lmet[v], tp.met[v].Log())
						}
					}
				}
			}
			if splits == 0 || mids == 0 || smooths == 0 {
				t.Fatalf("run exercised splits %d, midpoint collapses %d, smooths %d: want all three writers", splits, mids, smooths)
			}
		})
	}
}

// TestPlanOrderMatchesStableSort holds the key sort to the order it
// replaced: sort.SliceStable on priority alone. A uniform grid gives long
// runs of exactly equal priorities, where only stability decides.
func TestPlanOrderMatchesStableSort(t *testing.T) {
	m := egrid(t, 12)
	f := func(geom.Point) metric.M { return metric.Iso(1.0 / 40) }
	e := testEngine(t, m, metric.Analytic(m, f), Options{Resample: f})
	e.evaluate(opSplit)
	if len(e.plans) < 100 {
		t.Fatalf("only %d plans", len(e.plans))
	}
	distinct := map[float64]bool{}
	for _, p := range e.plans {
		distinct[p.Prio] = true
	}
	if len(distinct)*10 > len(e.plans) {
		t.Fatalf("%d distinct priorities among %d plans: not a tie-heavy list", len(distinct), len(e.plans))
	}
	want := append([]*opPlan(nil), e.plans...)
	sort.SliceStable(want, func(i, j int) bool { return want[i].Prio > want[j].Prio })
	keys := planOrder(nil, e.plans)
	if len(keys) != len(want) {
		t.Fatalf("%d keys for %d plans", len(keys), len(want))
	}
	for i, k := range keys {
		if e.plans[k.idx] != want[i] {
			t.Fatalf("position %d: key sort picks plan %d (prio %g), stable sort a plan of prio %g",
				i, k.idx, k.prio, want[i].Prio)
		}
	}
}

// TestRejectedCandidatesLeaveNothing: on a mesh where collapse candidates
// fail their endpoint forms and succeed in the midpoint form, each
// evaluator's buffer holds exactly the pass's plans and their Cav windows
// tile its arena, so no failed form left a plan or part of a cavity.
func TestRejectedCandidatesLeaveNothing(t *testing.T) {
	m := egrid(t, 16)
	f := func(geom.Point) metric.M { return metric.Iso(0.093) }
	e := testEngine(t, m, metric.Analytic(m, f), Options{Resample: f, Workers: 3})
	// Twice: the second evaluation runs in buffers that no longer grow, so
	// every window can be held to its address in the arena.
	for round := 0; round < 2; round++ {
		e.resetPass()
		e.evaluate(opCollapse)
	}
	mids, held := 0, 0
	for w := range e.bufs {
		b := &e.bufs[w]
		off := 0
		for i := range b.plans {
			p := &b.plans[i]
			if p.Mid {
				mids++
			}
			if len(p.Cav) == 0 || len(p.Cav) != cap(p.Cav) {
				t.Fatalf("evaluator %d plan %d: cavity len %d cap %d, want a non-empty clamped window", w, i, len(p.Cav), cap(p.Cav))
			}
			if off+len(p.Cav) > len(b.cav) || unsafe.SliceData(p.Cav) != &b.cav[off] {
				t.Fatalf("evaluator %d plan %d: cavity is not arena[%d:%d] of %d", w, i, off, off+len(p.Cav), len(b.cav))
			}
			off += len(p.Cav)
		}
		if off != len(b.cav) {
			t.Fatalf("evaluator %d: cavities cover %d of %d arena entries", w, off, len(b.cav))
		}
		held += len(b.plans)
	}
	if held != len(e.plans) {
		t.Fatalf("buffers hold %d plans, the pass returned %d", held, len(e.plans))
	}
	for i, p := range e.plans {
		if i > 0 && p.T < e.plans[i-1].T {
			t.Fatalf("plan %d (anchor %d) precedes anchor %d: not in chunk order", i-1, e.plans[i-1].T, p.T)
		}
	}
	if mids == 0 {
		t.Fatal("no midpoint-form plan: the mesh does not make endpoint forms fail first")
	}
}

// TestAdaptAllocsFlat: a cycle that evaluates more than 100k plans
// allocates a few hundred objects — topology set-up, buffer growth, the
// extracted mesh — not a number proportional to the plans.
func TestAdaptAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := func(geom.Point) metric.M { return metric.Iso(0.01) }
	m := egrid(t, 32)
	field := metric.Analytic(m, f)
	var res *Result
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		if _, res, err = Adapt(m, field, Options{Resample: f}); err != nil {
			t.Fatal(err)
		}
	})
	plans := res.Splits + res.Collapses + res.Swaps + res.Smooths + res.Conflicts
	t.Logf("%d plans evaluated, %.0f allocations", plans, allocs)
	if plans <= 100_000 {
		t.Fatalf("cycle evaluated %d plans, want > 100k", plans)
	}
	if allocs >= 2000 {
		t.Fatalf("%.0f allocations for %d evaluated plans, want < 2000", allocs, plans)
	}
}
