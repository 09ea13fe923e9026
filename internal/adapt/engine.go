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
// merged in chunk order, the merged plans are sorted by priority with a
// stable sort, selection walks them in that order, and ring walks use a
// canonical starting triangle — so the adapted mesh is a function of the
// input mesh and field alone, independent of worker count and commit
// scheduling.

import (
	"fmt"
	"math"
	"sort"
	"sync"

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
	// Ranks > 1 distributes plan evaluation over an in-process MPI world
	// via the loadbal work-stealing scheduler; selection and commit stay
	// on the root. 0 and 1 evaluate locally.
	Ranks int
	// Tracer, when non-nil, records one CatKernel span per pass and
	// adapt.* metrics; Rank is the track spans land on.
	Tracer *trace.Tracer
	Rank   int
	// NoSwap and NoSmooth disable the quality passes, leaving pure
	// split/collapse sizing.
	NoSwap, NoSmooth bool
	// Resample, when non-nil, evaluates the metric field at new and moved
	// vertex positions (analytic fields); otherwise new vertices
	// interpolate the endpoint tensors log-Euclidean.
	Resample func(geom.Point) metric.M
	// CheckEach, when non-nil, is called after every sweep with the sweep
	// index and a freshly extracted mesh; a non-nil error aborts the
	// adaptation. Tests hook structural audits here.
	CheckEach func(sweep int, m *mesh.Mesh) error
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
}

const evalChunk = 256

// Adapt drives the input mesh toward unit metric edge length under the
// per-vertex field f, returning the adapted mesh (the input is not
// modified) and a report. The field must have one tensor per input
// vertex; tensors at vertices created by splits are interpolated (or
// resampled via opt.Resample).
func Adapt(m *mesh.Mesh, f metric.Field, opt Options) (*mesh.Mesh, *Result, error) {
	if opt.Band <= 1 {
		opt.Band = DefaultBand
	}
	if opt.MaxSweeps <= 0 {
		opt.MaxSweeps = 20
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	for i, t := range f {
		if !t.SPD() {
			return nil, nil, fmt.Errorf("adapt: tensor %d is not SPD: %+v", i, t)
		}
	}
	tp, err := newTopo(m, f)
	if err != nil {
		return nil, nil, err
	}
	e := &engine{tp: tp, opt: opt, workers: opt.Workers,
		claimVert: make([]uint32, len(tp.pts))}
	if err := e.run(); err != nil {
		return nil, nil, err
	}
	return tp.mesh(), &e.res, nil
}

func (e *engine) run() error {
	kinds := []opKind{opSplit, opCollapse, opSwap, opSmooth}
	for s := 0; s < e.opt.MaxSweeps; s++ {
		changed := 0
		for _, k := range kinds {
			if (k == opSwap && e.opt.NoSwap) || (k == opSmooth && e.opt.NoSmooth) {
				continue
			}
			n, err := e.pass(k)
			if err != nil {
				return err
			}
			changed += n
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
func (e *engine) pass(kind opKind) (int, error) {
	var span trace.Span
	if e.opt.Tracer != nil {
		span = e.opt.Tracer.Begin(e.opt.Rank, trace.CatKernel, "adapt."+kind.String())
	}
	var plans []*opPlan
	if e.opt.Ranks > 1 {
		var err error
		plans, err = e.evaluateDist(kind)
		if err != nil {
			if e.opt.Tracer != nil {
				span.End()
			}
			return 0, err
		}
	} else {
		plans = e.evaluate(kind)
	}
	sel := e.selectPlans(plans)
	e.commit(sel)
	e.recycle(sel)
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
	if e.opt.Tracer != nil {
		span.End(trace.I("planned", len(plans)), trace.I("committed", len(sel)))
		mm := e.opt.Tracer.Metrics()
		mm.Count("adapt."+kind.String(), int64(len(sel)))
		mm.Gauge("adapt.live_triangles", float64(e.tp.live))
	}
	return len(sel), nil
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
// topology. Work is cut into fixed chunks independent of the worker
// count and the per-chunk results are merged in chunk order, so the plan
// list — and everything downstream — is worker-count invariant.
func (e *engine) evaluate(kind opKind) []*opPlan {
	n := e.items(kind)
	chunks := (n + evalChunk - 1) / evalChunk
	results := make([][]*opPlan, chunks)
	e.runParallel(func(w int) {
		s1 := make([]int32, 0, maxRing)
		s2 := make([]int32, 0, maxRing)
		for c := w; c < chunks; c += e.workers {
			results[c] = e.evalRange(kind, c*evalChunk, min((c+1)*evalChunk, n), s1, s2)
		}
	})
	var out []*opPlan
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// evalRange evaluates items [from, to) of one kind. Edge-based kinds
// visit each undirected edge once, owned by the lower-indexed triangle.
func (e *engine) evalRange(kind opKind, from, to int, s1, s2 []int32) []*opPlan {
	tp := e.tp
	var out []*opPlan
	if kind == opSmooth {
		for v := int32(from); v < int32(to); v++ {
			if p := e.evalSmooth(v, s1); p != nil {
				out = append(out, p)
			}
		}
		return out
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
			var p *opPlan
			switch kind {
			case opSplit:
				p = e.evalSplit(t, ei)
			case opCollapse:
				p = e.evalCollapse(t, ei, s1, s2)
			case opSwap:
				if nb >= 0 {
					p = e.evalSwap(t, ei)
				}
			}
			if p != nil {
				out = append(out, p)
			}
		}
	}
	return out
}

// selectPlans picks a maximal conflict-free subset: plans in stable
// priority order, claiming every vertex of every cavity triangle under
// the current epoch; a plan touching a claimed vertex is dropped (it
// re-evaluates next pass). Splits get their new vertex and triangle
// slots assigned here, on the sequential path.
func (e *engine) selectPlans(plans []*opPlan) []*opPlan {
	tp := e.tp
	sort.SliceStable(plans, func(i, j int) bool { return plans[i].Prio > plans[j].Prio })
	e.epoch++
	if len(e.claimVert) < len(tp.pts) {
		e.claimVert = append(e.claimVert, make([]uint32, len(tp.pts)-len(e.claimVert))...)
	}
	var sel []*opPlan
	for _, p := range plans {
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
			p.newV = tp.addVertex(p.Pos, p.Met, p.Bnd)
			e.claimVert = append(e.claimVert, e.epoch)
			p.slots[0] = tp.allocSlot()
			p.slots[1] = -1
			if !p.Bnd {
				p.slots[1] = tp.allocSlot()
			}
		}
		sel = append(sel, p)
	}
	return sel
}

// commit applies the selected plans, striped across workers. The
// vertex-claim rule makes every write of one commit invisible to every
// other, so striping is only a work split.
func (e *engine) commit(sel []*opPlan) {
	if len(sel) == 0 {
		return
	}
	e.runParallel(func(w int) {
		for k := w; k < len(sel); k += e.workers {
			p := sel[k]
			switch p.Kind {
			case opSplit:
				e.commitSplit(p)
			case opCollapse:
				e.commitCollapse(p)
			case opSwap:
				e.commitSwap(p)
			case opSmooth:
				e.commitSmooth(p)
			}
		}
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
			a, b := tp.edgeVerts(int32(t), ei)
			edges++
			if l := tp.edgeLen(a, b); l >= 1/e.opt.Band && l <= e.opt.Band {
				in++
			}
		}
	}
	return edges, in
}
