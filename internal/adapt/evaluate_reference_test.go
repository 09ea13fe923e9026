package adapt

// The reference evaluators for swap and smooth: every old and new quality
// and every smoothing weight measured from scratch, with no geometry cache
// and no early exit. The engine's plan list must equal theirs, element for
// element and bit for bit, after every pass of whole runs, and the cache
// must equal a fresh measurement before every pass.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
)

// triQuality returns the metric shape quality of triangle t in its stored
// vertex order, measured from scratch.
func (tp *topo) triQuality(t int32) float64 {
	v := tp.tri[t].v
	return metric.TriQualityLog(tp.pts[v[0]], tp.pts[v[1]], tp.pts[v[2]],
		tp.met[v[0]], tp.met[v[1]], tp.met[v[2]],
		tp.lmet[v[0]], tp.lmet[v[1]], tp.lmet[v[2]])
}

// refEvalSwap is evalSwap with every quality measured from scratch and
// both new triangles always evaluated.
func (e *engine) refEvalSwap(buf *evalBuf, t int32, ei int) bool {
	tp := e.tp
	r := tp.tri[t]
	n := r.n[ei]
	if n < 0 {
		return false
	}
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	en := tp.find(n, b)
	if en < 0 || tp.tri[n].v[(en+1)%3] != a {
		return false
	}
	d := tp.tri[n].v[(en+2)%3]
	pa, pb, pc, pd := tp.pts[a], tp.pts[b], tp.pts[c], tp.pts[d]
	if geom.Orient2DSign(pa, pd, pc) <= 0 || geom.Orient2DSign(pd, pb, pc) <= 0 {
		return false
	}
	ma, mb, mc, md := tp.met[a], tp.met[b], tp.met[c], tp.met[d]
	la, lb, lc, ld := tp.lmet[a], tp.lmet[b], tp.lmet[c], tp.lmet[d]
	qOld := math.Min(metric.TriQualityLog(pa, pb, pc, ma, mb, mc, la, lb, lc),
		metric.TriQualityLog(pb, pa, pd, mb, ma, md, lb, la, ld))
	qNew := math.Min(metric.TriQualityLog(pa, pd, pc, ma, md, mc, la, ld, lc),
		metric.TriQualityLog(pd, pb, pc, md, mb, mc, ld, lb, lc))
	if qNew <= qOld+qualityGain {
		return false
	}
	mark := len(buf.cav)
	p := opPlan{Kind: opSwap, Prio: qNew - qOld, T: t, E: int8(ei)}
	buf.cav = append(buf.cav, t, n)
	nAD := tp.tri[n].n[(en+1)%3]
	tBC := r.n[(ei+1)%3]
	p.Pat[0] = patchRef{T: nAD, E: tp.nbrEdge(nAD, n)}
	p.Pat[1] = patchRef{T: tBC, E: tp.nbrEdge(tBC, t)}
	buf.push(&p, mark)
	return true
}

// refEvalSmooth is evalSmooth with the weights and the old ring quality
// measured from scratch and the new quality taken over the whole ring.
func (e *engine) refEvalSmooth(buf *evalBuf, v int32) bool {
	tp := e.tp
	if tp.vb[v] || tp.vtri[v] < 0 {
		return false
	}
	ring, interior := tp.ring(v, buf.s1)
	if !interior || len(ring) < 3 {
		return false
	}
	var sx, sy, wsum float64
	qOld := math.Inf(1)
	for _, rt := range ring {
		i := tp.find(rt, v)
		nb := tp.tri[rt].v[(i+1)%3]
		w := tp.edgeLen(v, nb)
		sx += w * tp.pts[nb].X
		sy += w * tp.pts[nb].Y
		wsum += w
		qOld = math.Min(qOld, tp.triQuality(rt))
	}
	if wsum <= 0 {
		return false
	}
	target := geom.Pt(sx/wsum, sy/wsum)
	pos := tp.pts[v].Lerp(target, 0.5)
	if pos == tp.pts[v] {
		return false
	}
	mm, lm := tp.met[v], tp.lmet[v]
	if e.opt.Resample != nil {
		mm = e.opt.Resample(pos)
		lm = mm.Log()
	}
	qNew := math.Inf(1)
	for _, rt := range ring {
		r := tp.tri[rt]
		var q [3]geom.Point
		var ms, ls [3]metric.M
		for i, vv := range r.v {
			if vv == v {
				q[i], ms[i], ls[i] = pos, mm, lm
			} else {
				q[i], ms[i], ls[i] = tp.pts[vv], tp.met[vv], tp.lmet[vv]
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return false
		}
		qNew = math.Min(qNew, metric.TriQualityLog(q[0], q[1], q[2], ms[0], ms[1], ms[2], ls[0], ls[1], ls[2]))
	}
	if qNew <= qOld+qualityGain {
		return false
	}
	mark := len(buf.cav)
	p := opPlan{Kind: opSmooth, Prio: qNew - qOld, T: -1, V: v, Pos: pos, Met: mm}
	buf.cav = append(buf.cav, ring...)
	buf.push(&p, mark)
	return true
}

// refPlans evaluates every item of one kind in item order — the order the
// engine's chunk walk yields — into buf, with the reference evaluators for
// swap and smooth (split and collapse have one evaluator).
func (e *engine) refPlans(kind opKind, buf *evalBuf) []opPlan {
	tp := e.tp
	buf.plans, buf.cav = buf.plans[:0], buf.cav[:0]
	if kind == opSmooth {
		for v := range tp.pts {
			if mark := len(buf.cav); !e.refEvalSmooth(buf, int32(v)) {
				buf.cav = buf.cav[:mark]
			}
		}
		return buf.plans
	}
	for t := int32(0); t < int32(len(tp.tri)); t++ {
		if tp.tri[t].dead {
			continue
		}
		for ei := 0; ei < 3; ei++ {
			nb := tp.tri[t].n[ei]
			if nb >= 0 && nb < t {
				continue
			}
			mark := len(buf.cav)
			ok := false
			switch kind {
			case opSplit:
				ok = e.evalSplit(buf, t, ei)
			case opCollapse:
				ok = e.evalCollapse(buf, t, ei)
			case opSwap:
				ok = nb >= 0 && e.refEvalSwap(buf, t, ei)
			}
			if !ok {
				buf.cav = buf.cav[:mark]
			}
		}
	}
	return buf.plans
}

// planDiff names the first field in which two plans differ, or returns "".
// Floats compare by bits.
func planDiff(got, want *opPlan) string {
	bits := math.Float64bits
	switch {
	case got.Kind != want.Kind:
		return fmt.Sprintf("Kind %v, want %v", got.Kind, want.Kind)
	case got.T != want.T || got.E != want.E:
		return fmt.Sprintf("anchor %d/%d, want %d/%d", got.T, got.E, want.T, want.E)
	case got.V != want.V || got.Keep != want.Keep:
		return fmt.Sprintf("V/Keep %d/%d, want %d/%d", got.V, got.Keep, want.V, want.Keep)
	case bits(got.Prio) != bits(want.Prio):
		return fmt.Sprintf("Prio %v, want %v", got.Prio, want.Prio)
	case bits(got.Pos.X) != bits(want.Pos.X) || bits(got.Pos.Y) != bits(want.Pos.Y):
		return fmt.Sprintf("Pos %v, want %v", got.Pos, want.Pos)
	case !sameBits(got.Met, want.Met):
		return fmt.Sprintf("Met %+v, want %+v", got.Met, want.Met)
	case got.Bnd != want.Bnd || got.Mid != want.Mid:
		return fmt.Sprintf("Bnd/Mid %v/%v, want %v/%v", got.Bnd, got.Mid, want.Bnd, want.Mid)
	case !slices.Equal(got.Cav, want.Cav):
		return fmt.Sprintf("Cav %v, want %v", got.Cav, want.Cav)
	case got.Pat != want.Pat || got.Dy != want.Dy || got.NDy != want.NDy:
		return fmt.Sprintf("Pat/Dy %v/%v/%d, want %v/%v/%d", got.Pat, got.Dy, got.NDy, want.Pat, want.Dy, want.NDy)
	}
	return ""
}

// runAgainstReference drives an Adapt run pass by pass the way engine.run
// does, and before each pass checks the geometry cache against a fresh
// measurement and computes the reference plan list on the same topology;
// after the pass, e.plans must equal it. It returns how many swap and
// smooth plans were compared.
func runAgainstReference(t testing.TB, m *mesh.Mesh, f func(geom.Point) metric.M, opt Options) (swaps, smooths int) {
	t.Helper()
	e := testEngine(t, m, metric.Analytic(m, f), opt)
	ref := evalBuf{s1: make([]int32, 0, maxRing), s2: make([]int32, 0, maxRing), nbrs: make([]int32, 2*maxRing)}
	for s := 0; s < e.opt.MaxSweeps; s++ {
		changed := 0
		for _, k := range sweepKinds {
			if err := geoIncoherent(e.tp); err != nil {
				t.Fatalf("sweep %d, before %v: %v", s, k, err)
			}
			want := e.refPlans(k, &ref)
			changed += e.pass(k)
			if len(e.plans) != len(want) {
				t.Fatalf("sweep %d %v: %d plans, reference %d", s, k, len(e.plans), len(want))
			}
			for i, p := range e.plans {
				if d := planDiff(p, &want[i]); d != "" {
					t.Fatalf("sweep %d %v: plan %d: %s", s, k, i, d)
				}
			}
			switch k {
			case opSwap:
				swaps += len(want)
			case opSmooth:
				smooths += len(want)
			}
		}
		if changed == 0 {
			break
		}
	}
	return swaps, smooths
}

// TestEvaluateMatchesReference: whole boundary-layer runs, in both field
// modes and at 1 and 3 workers, plan the same operations as the reference
// evaluators after every pass.
func TestEvaluateMatchesReference(t *testing.T) {
	spec := blSpec(t)
	for _, mode := range fieldModes {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/w%d", mode.name, workers), func(t *testing.T) {
				opt := Options{Workers: workers}
				if mode.resample {
					opt.Resample = spec
				}
				swaps, smooths := runAgainstReference(t, egrid(t, 10), spec, opt)
				if swaps == 0 || smooths == 0 {
					t.Fatalf("compared %d swap and %d smooth plans: want both", swaps, smooths)
				}
			})
		}
	}
}

// jitteredGrid is egrid(n) with every interior vertex moved by up to a
// fifth of the pitch in each coordinate: no triangle can invert, and
// the tie-heavy symmetry of the exact grid is gone.
func jitteredGrid(t testing.TB, n int, seed int64) *mesh.Mesh {
	t.Helper()
	m := egrid(t, n)
	rng := rand.New(rand.NewSource(seed))
	h := 1.0 / float64(n)
	for i, p := range m.Points {
		if inside := func(x float64) bool { return x > 1e-9 && x < 1-1e-9 }; inside(p.X) && inside(p.Y) {
			m.Points[i] = geom.Pt(p.X+0.4*h*(rng.Float64()-0.5), p.Y+0.4*h*(rng.Float64()-0.5))
		}
	}
	if err := m.Audit(); err != nil {
		t.Fatalf("jittered grid: %v", err)
	}
	return m
}

// FuzzEvaluateMatchesReference runs the pass-by-pass comparison on
// jittered grids under boundary-layer fields off any side of the square,
// with random spacings, growth, field mode and worker count.
func FuzzEvaluateMatchesReference(f *testing.F) {
	f.Add(uint8(6), int64(1), uint8(0), uint16(1000), uint16(20000), uint16(30000), false, uint8(1))
	f.Add(uint8(8), int64(7), uint8(1), uint16(200), uint16(60000), uint16(5000), true, uint8(3))
	f.Add(uint8(4), int64(-3), uint8(3), uint16(65535), uint16(0), uint16(65535), true, uint8(2))
	f.Fuzz(func(t *testing.T, n uint8, seed int64, side uint8, hn16, ht16, grow16 uint16, resample bool, workers uint8) {
		u := func(x uint16) float64 { return float64(x) / math.MaxUint16 }
		hn := 0.01 + 0.1*u(hn16)
		ht := hn + 0.3*u(ht16)
		grow := 0.2 + u(grow16)
		walls := [4][4]int{{0, 0, 1, 0}, {1, 0, 1, 1}, {1, 1, 0, 1}, {0, 1, 0, 0}}
		w := walls[side%4]
		field, err := metric.ParseSpec(fmt.Sprintf("bl:x0=%d,y0=%d,x1=%d,y1=%d,hn=%g,ht=%g,grow=%g", w[0], w[1], w[2], w[3], hn, ht, grow))
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{Workers: 1 + int(workers%3), MaxSweeps: 4}
		if resample {
			opt.Resample = field
		}
		runAgainstReference(t, jitteredGrid(t, 3+int(n%6), seed), field, opt)
	})
}
