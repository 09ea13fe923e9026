// Package adapt adapts an existing mesh to a Riemannian metric field with
// local cavity operators — edge split, collapse and swap, and
// metric-weighted smoothing — and drives the paper's Figure 1 loop on that
// engine: Adapt runs the operators against one field (this file, ops.go,
// topo.go); Cycles re-builds the field on each adapted mesh, for the
// "hessian" source by re-solving the model problem there, and audits every
// cycle's output (cycles.go). Nothing is regenerated: the package knows
// neither the generator nor its sizing function.
package adapt

// Metric-driven cavity-operator adaptation. Each pass evaluates one
// operator kind (split, collapse, swap, smooth) over the whole mesh
// against a frozen topology, selects a conflict-free subset sequentially,
// and commits the selected operations from multiple workers — the same
// evaluate/select/commit discipline as delaunay.BuildParallel, with one
// difference in the conflict currency: adaptation operators move and
// delete vertices, so selection claims cavity *vertices* rather than
// triangles. Vertex-disjoint cavities read and write disjoint
// coordinates, create distinct edges (every edge an operation creates
// joins two of its cavity vertices), and rewrite disjoint
// neighbor-pointer words: a pointer word outside a cavity that a commit
// must patch holds the index of one of the commit's own cavity
// triangles, and a triangle belongs to at most one selected cavity, so
// two commits can never race on the same word. Those outside words are
// located during evaluation (patchRef/dyingRef) and written by index,
// never by scanning, because the *other* words of a patched triangle may
// belong to a different commit.
//
// Determinism: evaluation runs over fixed-size chunks whose results are
// walked in chunk order, selection visits the plans by (priority
// descending, position in that walk ascending) — a total order, so the
// key sort yields the one permutation a stable sort on priority would —
// and ring walks use a canonical starting triangle, so the adapted mesh
// is a function of the input mesh and field alone, independent of worker
// count and commit scheduling.
//
// Cost: a pass allocates nothing per plan. Each worker appends its plans
// by value to its own evalBuf and their cavities to that buffer's arena; a
// candidate that fails validation — a failed collapse form included,
// before the next form is tried — truncates the arena back to the mark
// taken before it, so what the buffers hold after evaluation is exactly
// the pass's plans. The buffers, the chunk windows and the pointer, key
// and selected lists are reset per pass and live for the Adapt call.
// Evaluation measures only what the pass's commits may change. Each
// triangle slot keeps its directed metric edge lengths and its quality in
// each rotation (topo.geo), refreshed by the commits that rewrite the slot
// or move one of its vertices; split, collapse and the in-band count read
// the lengths, swap's old pair and smooth's old ring the qualities, and a
// new triangle measures only its edges that do not exist yet before
// metric.TriQualityLens, the one quality implementation. Quality reads the
// per-vertex log-tensor cache (topo.lmet) instead of taking three matrix
// logarithms per triangle. Swap and smooth stop evaluating new triangles
// at the first one that fails the pass's bar. None of this changes a bit
// of a plan.

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/trace"
)

// DefaultBand is the metric edge-length acceptance band: adaptation
// drives every edge into [1/DefaultBand, DefaultBand], the classical
// quasi-unit interval.
var DefaultBand = math.Sqrt2

// Options configures one Adapt call.
type Options struct {
	// Band is the edge-length acceptance half-width b: edges longer than
	// b split, edges shorter than 1/b collapse. Values <= 1 select
	// DefaultBand (√2).
	Band float64
	// MaxSweeps caps the operator sweeps; 0 resolves to 20.
	MaxSweeps int
	// Workers is the number of evaluation/commit goroutines; 0 resolves
	// to 1. The result is identical for every worker count.
	Workers int
	// Deprecated: alias of Workers kept for bench/; see ROADMAP 10a. The
	// larger of the two is the worker count.
	Ranks int
	// Tracer, when non-nil, records one CatKernel span per pass, on
	// track 0, and adapt.* metrics.
	Tracer *trace.Tracer
	// Resample, when non-nil, evaluates the metric field at new and moved
	// vertex positions (analytic fields); otherwise new vertices
	// interpolate the endpoint tensors log-Euclidean.
	Resample func(geom.Point) metric.M
	// CheckEach, when non-nil, is called after every sweep with the sweep
	// index and a freshly extracted mesh; a non-nil error aborts the
	// adaptation. Tests hook structural audits here.
	CheckEach func(sweep int, m *mesh.Mesh) error
}

// withDefaults resolves the zero values as the field comments say.
func (o Options) withDefaults() Options {
	if o.Band <= 1 {
		o.Band = DefaultBand
	}
	if o.MaxSweeps <= 0 {
		o.MaxSweeps = 20
	}
	o.Workers = max(o.Workers, o.Ranks, 1) // Ranks: deprecated alias
	return o
}

// Result reports what an Adapt call did.
type Result struct {
	Sweeps    int
	Splits    int
	Collapses int
	Swaps     int
	Smooths   int
	// Conflicts counts evaluated plans rejected by the vertex-claim
	// sweep; they are re-evaluated next pass.
	Conflicts int
	// Edges and InBand describe the final mesh: total edge count and the
	// fraction with metric length inside [1/Band, Band].
	Edges  int
	InBand float64
	// Converged is true when every edge ended in band.
	Converged bool
}

// engine is the per-Adapt state.
type engine struct {
	tp      *topo
	opt     Options
	workers int
	// claimVert[v] == epoch marks v claimed by a selected operation in
	// the current selection sweep.
	claimVert []uint32
	epoch     uint32
	res       Result

	// Per-pass storage, reset by every pass and reused by the next.
	bufs  []evalBuf // one per worker
	wins  []planWin // chunk c's plans are bufs[ev].plans[lo:hi]
	plans []*opPlan // the pass's plans in chunk order
	keys  []planKey // selection order over plans
	sel   []*opPlan // the selected subset
}

// evalBuf is one worker's plan storage. Plans are appended by value;
// their cavities are appended to the cav arena and opPlan.Cav is left a
// capacity-clamped window of it. s1 and s2 are the ring-walk scratch,
// nbrs tryCollapse's list of the dying vertex's neighbors, evals the
// worker's quality evaluations and refreshed the slots its commits
// refreshed in the current pass.
type evalBuf struct {
	plans     []opPlan
	cav       []int32
	s1, s2    []int32
	nbrs      []int32
	evals     int
	refreshed int
}

// push completes a validated candidate: its cavity is what evaluation
// appended to the arena since mark. (A rejected candidate's caller
// truncates the arena to mark instead.)
func (b *evalBuf) push(p *opPlan, mark int) {
	p.Cav = b.cav[mark:len(b.cav):len(b.cav)]
	b.plans = append(b.plans, *p)
}

// planWin is one chunk's window of a worker's plans.
type planWin struct{ ev, lo, hi int32 }

// planKey orders plans[idx] for selection.
type planKey struct {
	prio float64
	idx  int32
}

const evalChunk = 256

// Adapt drives the input mesh toward unit metric edge length under the
// per-vertex field f, returning the adapted mesh (the input is not
// modified) and a report. The field must have one tensor per input
// vertex; tensors at vertices created by splits are interpolated (or
// resampled via opt.Resample).
func Adapt(m *mesh.Mesh, f metric.Field, opt Options) (*mesh.Mesh, *Result, error) {
	opt = opt.withDefaults()
	for i, t := range f {
		if !t.SPD() {
			return nil, nil, fmt.Errorf("adapt: tensor %d is not SPD: %+v", i, t)
		}
	}
	tp, err := newTopo(m, f)
	if err != nil {
		return nil, nil, err
	}
	e := newEngine(tp, opt)
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	return tp.mesh(), &e.res, nil
}

// newEngine gives each of opt.Workers workers its evaluation buffer.
func newEngine(tp *topo, opt Options) *engine {
	e := &engine{tp: tp, opt: opt, workers: opt.Workers,
		claimVert: make([]uint32, len(tp.pts)),
		bufs:      make([]evalBuf, opt.Workers)}
	for i := range e.bufs {
		e.bufs[i].s1 = make([]int32, 0, maxRing)
		e.bufs[i].s2 = make([]int32, 0, maxRing)
		e.bufs[i].nbrs = make([]int32, 2*maxRing)
	}
	return e
}

// sweepKinds is the order of the passes of one sweep.
var sweepKinds = [...]opKind{opSplit, opCollapse, opSwap, opSmooth}

func (e *engine) run() error {
	for s := 0; s < e.opt.MaxSweeps; s++ {
		changed := 0
		for _, k := range sweepKinds {
			changed += e.pass(k)
		}
		e.res.Sweeps = s + 1
		edges, in := e.edgeBand()
		e.res.Edges = edges
		if edges > 0 {
			e.res.InBand = float64(in) / float64(edges)
		}
		if e.opt.CheckEach != nil {
			if err := e.opt.CheckEach(s, e.tp.mesh()); err != nil {
				return fmt.Errorf("adapt: sweep %d: %w", s, err)
			}
		}
		if in == edges {
			e.res.Converged = true
			return nil
		}
		if changed == 0 {
			return nil
		}
	}
	return nil
}

// pass runs one evaluate/select/commit round of a single operator kind
// and returns the number of committed operations.
func (e *engine) pass(kind opKind) int {
	tr := e.opt.Tracer
	var span trace.Span
	var stamp [5]time.Time // evaluate | order | select | commit+recycle |; read only when tracing
	lap := func(i int) {
		if tr != nil {
			stamp[i] = time.Now()
		}
	}
	if tr != nil {
		span = tr.Begin(0, trace.CatKernel, "adapt."+kind.String())
	}
	lap(0)
	e.resetPass()
	e.evaluate(kind)
	lap(1)
	e.keys = planOrder(e.keys, e.plans)
	lap(2)
	sel := e.selectPlans()
	lap(3)
	e.commit(sel)
	e.recycle(sel)
	lap(4)
	switch kind {
	case opSplit:
		e.res.Splits += len(sel)
	case opCollapse:
		e.res.Collapses += len(sel)
	case opSwap:
		e.res.Swaps += len(sel)
	case opSmooth:
		e.res.Smooths += len(sel)
	}
	if tr != nil {
		ms := func(i int) float64 { return float64(stamp[i+1].Sub(stamp[i])) / float64(time.Millisecond) }
		evals, refreshed := 0, 0
		for i := range e.bufs {
			evals += e.bufs[i].evals
			refreshed += e.bufs[i].refreshed
		}
		// rejected: plans the vertex-claim sweep dropped this pass.
		span.End(trace.I("planned", len(e.plans)), trace.I("committed", len(sel)),
			trace.I("rejected", len(e.plans)-len(sel)), trace.I("quality_evals", evals),
			trace.I("refreshed", refreshed), trace.F("eval_ms", ms(0)), trace.F("order_ms", ms(1)),
			trace.F("select_ms", ms(2)), trace.F("commit_ms", ms(3)))
		mm := tr.Metrics()
		mm.Count("adapt."+kind.String(), int64(len(sel)))
		mm.Gauge("adapt.live_triangles", float64(e.tp.live))
	}
	return len(sel)
}

// resetPass empties the evaluator buffers and the plan list, keeping
// their storage for the pass about to run.
func (e *engine) resetPass() {
	for i := range e.bufs {
		e.bufs[i].plans = e.bufs[i].plans[:0]
		e.bufs[i].cav = e.bufs[i].cav[:0]
		e.bufs[i].evals = 0
		e.bufs[i].refreshed = 0
	}
	e.plans = e.plans[:0]
}

// items returns the number of evaluation items for a kind: triangles for
// the edge-based operators, vertices for smoothing.
func (e *engine) items(kind opKind) int {
	if kind == opSmooth {
		return len(e.tp.pts)
	}
	return len(e.tp.tri)
}

// evaluate computes every candidate plan of one kind against the frozen
// topology into e.plans. Work is cut into fixed chunks independent of the
// worker count; each chunk records which window of which worker's
// buffer it filled and the windows are walked in chunk order, so the plan
// list — and everything downstream — is worker-count invariant.
func (e *engine) evaluate(kind opKind) {
	n := e.items(kind)
	chunks := (n + evalChunk - 1) / evalChunk
	e.wins = slices.Grow(e.wins[:0], chunks)[:chunks]
	e.runParallel(func(w int) {
		b := &e.bufs[w]
		for c := w; c < chunks; c += e.workers {
			lo, hi := e.evalRange(kind, c*evalChunk, min((c+1)*evalChunk, n), b)
			e.wins[c] = planWin{ev: int32(w), lo: int32(lo), hi: int32(hi)}
		}
	})
	// The buffers have stopped growing: pointers into them are stable.
	for _, w := range e.wins {
		e.addPlans(e.bufs[w.ev].plans[w.lo:w.hi])
	}
}

// addPlans appends pointers to the plans of one chunk to the pass's list.
func (e *engine) addPlans(ps []opPlan) {
	for i := range ps {
		e.plans = append(e.plans, &ps[i])
	}
}

// evalRange evaluates items [from, to) of one kind into b and returns the
// window b.plans[lo:hi] it appended. Edge-based kinds visit each
// undirected edge once, owned by the lower-indexed triangle. Every
// candidate starts from a mark on the cavity arena and a rejected one is
// truncated back to it.
func (e *engine) evalRange(kind opKind, from, to int, b *evalBuf) (lo, hi int) {
	tp := e.tp
	lo = len(b.plans)
	if kind == opSmooth {
		for v := int32(from); v < int32(to); v++ {
			if mark := len(b.cav); !e.evalSmooth(b, v) {
				b.cav = b.cav[:mark]
			}
		}
		return lo, len(b.plans)
	}
	for t := int32(from); t < int32(to); t++ {
		if tp.tri[t].dead {
			continue
		}
		for ei := 0; ei < 3; ei++ {
			nb := tp.tri[t].n[ei]
			if nb >= 0 && nb < t {
				continue // the neighbor owns this edge
			}
			mark := len(b.cav)
			ok := false
			switch kind {
			case opSplit:
				ok = e.evalSplit(b, t, ei)
			case opCollapse:
				ok = e.evalCollapse(b, t, ei)
			case opSwap:
				ok = nb >= 0 && e.evalSwap(b, t, ei)
			}
			if !ok {
				b.cav = b.cav[:mark]
			}
		}
	}
	return lo, len(b.plans)
}

// planOrder fills keys with the selection order over plans: priority
// descending, position ascending. The position makes the order total, so
// an unstable sort gives exactly what a stable sort on priority alone
// would (TestPlanOrderMatchesStableSort) — without reflection and without
// the stable sort's extra merging passes.
func planOrder(keys []planKey, plans []*opPlan) []planKey {
	keys = keys[:0]
	for i, p := range plans {
		keys = append(keys, planKey{prio: p.Prio, idx: int32(i)})
	}
	slices.SortFunc(keys, func(a, b planKey) int {
		switch {
		case a.prio > b.prio:
			return -1
		case a.prio < b.prio:
			return 1
		}
		return int(a.idx - b.idx)
	})
	return keys
}

// selectPlans picks a maximal conflict-free subset of e.plans: plans in
// the order e.keys gives (planOrder), claiming every vertex of every
// cavity triangle under the current epoch; a plan touching a claimed
// vertex is dropped (it re-evaluates next pass). Splits get their new
// vertex and triangle slots assigned here, on the sequential path; the
// vertex's tensor is left to the commit.
func (e *engine) selectPlans() []*opPlan {
	tp := e.tp
	e.epoch++
	if len(e.claimVert) < len(tp.pts) {
		e.claimVert = append(e.claimVert, make([]uint32, len(tp.pts)-len(e.claimVert))...)
	}
	sel := e.sel[:0]
	for _, k := range e.keys {
		p := e.plans[k.idx]
		conflict := false
	scan:
		for _, t := range p.Cav {
			for _, v := range tp.tri[t].v {
				if e.claimVert[v] == e.epoch {
					conflict = true
					break scan
				}
			}
		}
		if conflict {
			e.res.Conflicts++
			continue
		}
		for _, t := range p.Cav {
			for _, v := range tp.tri[t].v {
				e.claimVert[v] = e.epoch
			}
		}
		if p.Kind == opSplit {
			p.newV = tp.addVertex(p.Pos, p.Bnd)
			e.claimVert = append(e.claimVert, e.epoch)
			p.slots[0] = tp.allocSlot()
			p.slots[1] = -1
			if !p.Bnd {
				p.slots[1] = tp.allocSlot()
			}
		}
		sel = append(sel, p)
	}
	e.sel = sel
	return sel
}

// commit applies the selected plans, striped across workers. The
// vertex-claim rule makes every write of one commit invisible to every
// other, so striping is only a work split. Each commit returns how many
// slots it refreshed.
func (e *engine) commit(sel []*opPlan) {
	if len(sel) == 0 {
		return
	}
	e.runParallel(func(w int) {
		n := 0
		for k := w; k < len(sel); k += e.workers {
			p := sel[k]
			switch p.Kind {
			case opSplit:
				n += e.commitSplit(p)
			case opCollapse:
				n += e.commitCollapse(p)
			case opSwap:
				n += e.commitSwap(p)
			case opSmooth:
				n += e.commitSmooth(p)
			}
		}
		e.bufs[w].refreshed += n
	})
}

// recycle returns the slots of collapsed triangles to the free list.
// Sequential: the free list is shared state.
func (e *engine) recycle(sel []*opPlan) {
	for _, p := range sel {
		if p.Kind != opCollapse {
			continue
		}
		for i := 0; i < int(p.NDy); i++ {
			e.tp.freeSlot(p.Dy[i].D)
		}
	}
}

// runParallel executes body on every worker index and waits.
func (e *engine) runParallel(body func(w int)) {
	if e.workers <= 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(e.workers)
	for w := 0; w < e.workers; w++ {
		go func(w int) { defer wg.Done(); body(w) }(w)
	}
	wg.Wait()
}

// edgeBand counts live edges and how many have metric length within
// [1/Band, Band].
func (e *engine) edgeBand() (edges, in int) {
	tp := e.tp
	for t := range tp.tri {
		if tp.tri[t].dead {
			continue
		}
		for ei := 0; ei < 3; ei++ {
			if nb := tp.tri[t].n[ei]; nb >= 0 && nb < int32(t) {
				continue
			}
			edges++
			if l := tp.geo[t].len[ei]; l >= 1/e.opt.Band && l <= e.opt.Band {
				in++
			}
		}
	}
	return edges, in
}
