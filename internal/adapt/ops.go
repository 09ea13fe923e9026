package adapt

import (
	"math"
	"sync/atomic"

	"pamg2d/internal/geom"
	"pamg2d/internal/metric"
)

// opKind enumerates the cavity operators.
type opKind uint8

const (
	opSplit opKind = iota + 1
	opCollapse
	opSwap
	opSmooth
)

func (k opKind) String() string {
	switch k {
	case opSplit:
		return "split"
	case opCollapse:
		return "collapse"
	case opSwap:
		return "swap"
	case opSmooth:
		return "smooth"
	}
	return "?"
}

// qualityGain is the minimum improvement in the worst metric quality a
// swap or smooth must deliver; it keeps near-neutral operations from
// oscillating between sweeps.
const qualityGain = 1e-3

// patchRef names one neighbor-pointer word of a triangle outside the
// cavity that a commit must rewrite: tri[t].n[e]. The word index is
// recorded during evaluation (when topology is frozen and reads are
// safe) so commits write it directly without scanning — concurrent
// commits may own other words of the same triangle.
type patchRef struct {
	T int32
	E int8
}

// dyingRef describes one triangle a collapse deletes: the slot D, its
// third vertex W (besides the dying and surviving endpoints), the
// outside neighbor K across the (keep, w) edge with the index KE of K's
// pointer word back at D, and the ring neighbor R across the (w, die)
// edge. After the collapse K and R become mutual neighbors.
type dyingRef struct {
	D, K, R, W int32
	KE         int8
}

// opPlan is one evaluated cavity operation. The evaluation phase fills
// everything except newV/slots (assigned at selection for splits).
// Cav lists the triangles the commit rewrites or deletes. Selection
// claims every vertex of every cavity triangle: operations with
// disjoint cavity vertex sets read and write disjoint coordinates,
// create distinct edges, and touch distinct neighbor-pointer words, so
// their commits are independent (see engine.selectPlans).
type opPlan struct {
	Kind opKind
	Prio float64    // selection priority, larger first
	T    int32      // anchor triangle (split/collapse/swap)
	E    int8       // anchor edge in T
	V    int32      // collapse: dying vertex; smooth: moved vertex
	Keep int32      // collapse: surviving vertex
	Pos  geom.Point // split: new point; smooth: new position
	Met  metric.M   // collapse (Mid) and smooth: metric at Pos
	Bnd  bool       // split of a boundary edge
	Mid  bool       // collapse onto the edge midpoint (keep moves to Pos)
	Cav  []int32
	Pat  [2]patchRef // split/swap: outside back-pointer words
	Dy   [2]dyingRef // collapse: deleted triangles
	NDy  int8        // collapse: how many triangles die (1 or 2)

	newV  int32
	slots [2]int32
}

// edgeVerts returns the endpoints of anchor edge e of triangle t.
func (tp *topo) edgeVerts(t int32, e int) (int32, int32) {
	return tp.tri[t].v[e], tp.tri[t].v[(e+1)%3]
}

// nbrEdge returns the index of h's neighbor word referencing x, or -1.
func (tp *topo) nbrEdge(h, x int32) int8 {
	if h < 0 {
		return -1
	}
	for e := int8(0); e < 3; e++ {
		if tp.tri[h].n[e] == x {
			return e
		}
	}
	return -1
}

func (e *engine) storeVtri(v, t int32) {
	atomic.StoreInt32(&e.tp.vtri[v], t)
}

// patch writes one recorded back-pointer word.
func (e *engine) patch(p patchRef, val int32) {
	if p.T >= 0 {
		e.tp.tri[p.T].n[p.E] = val
	}
}

// --- split ---------------------------------------------------------------

// evalSplit plans the midpoint split of edge ei of triangle t when its
// metric length exceeds band. Like every evaluator it appends the plan to
// buf and reports true, or reports false and leaves the caller to drop
// whatever cavity it had appended.
func (e *engine) evalSplit(buf *evalBuf, t int32, ei int) bool {
	tp := e.tp
	a, b := tp.edgeVerts(t, ei)
	l := tp.geo[t].len[ei]
	if l <= e.opt.Band {
		return false
	}
	mid := tp.pts[a].Mid(tp.pts[b])
	r := tp.tri[t]
	c := r.v[(ei+2)%3]
	n := r.n[ei]
	// The two (or four) children must be strictly CCW.
	if geom.Orient2DSign(tp.pts[a], mid, tp.pts[c]) <= 0 ||
		geom.Orient2DSign(mid, tp.pts[b], tp.pts[c]) <= 0 {
		return false
	}
	mark := len(buf.cav)
	p := opPlan{Kind: opSplit, Prio: l, T: t, E: int8(ei), Pos: mid}
	buf.cav = append(buf.cav, t)
	tBC := r.n[(ei+1)%3]
	p.Pat[0] = patchRef{T: tBC, E: tp.nbrEdge(tBC, t)}
	p.Pat[1] = patchRef{T: -1}
	if n < 0 {
		p.Bnd = true
		buf.push(&p, mark)
		return true
	}
	en := tp.find(n, b) // edge (b, a) in the neighbor
	if en < 0 || tp.tri[n].v[(en+1)%3] != a {
		return false // non-manifold adjacency; leave it to the audit
	}
	d := tp.tri[n].v[(en+2)%3]
	if geom.Orient2DSign(tp.pts[b], mid, tp.pts[d]) <= 0 ||
		geom.Orient2DSign(mid, tp.pts[a], tp.pts[d]) <= 0 {
		return false
	}
	buf.cav = append(buf.cav, n)
	nAD := tp.tri[n].n[(en+1)%3]
	p.Pat[1] = patchRef{T: nAD, E: tp.nbrEdge(nAD, n)}
	buf.push(&p, mark)
	return true
}

// commitSplit replaces the one or two cavity triangles of a planned
// split with the midpoint children. Slot layout: the a-side child keeps
// slot T and the b-side child takes slots[0]; across the edge the
// b-side child keeps slot n and the a-side child takes slots[1]. The new
// vertex's metric comes from Options.Resample (analytic fields) or the
// log-Euclidean mean of the endpoints; it is written here, by the commit
// that owns the vertex, so the candidates that never commit cost none.
// It returns the number of slots refreshed.
func (e *engine) commitSplit(p *opPlan) int {
	tp := e.tp
	t := p.T
	ei := int(p.E)
	r := tp.tri[t] // copy: the slot is overwritten below
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	m := p.newV
	tBC := r.n[(ei+1)%3]
	tCA := r.n[(ei+2)%3]
	s1 := p.slots[0]
	if e.opt.Resample != nil {
		tp.met[m] = e.opt.Resample(p.Pos)
	} else {
		tp.met[m] = metric.Interp(tp.met[a], tp.met[b], 0.5)
	}
	tp.lmet[m] = tp.met[m].Log()

	if p.Bnd {
		tp.tri[t] = triRec{v: [3]int32{a, m, c}, n: [3]int32{-1, s1, tCA}}
		tp.tri[s1] = triRec{v: [3]int32{m, b, c}, n: [3]int32{-1, tBC, t}}
		e.patch(p.Pat[0], s1) // tBC: t → s1
		e.storeVtri(a, t)
		e.storeVtri(b, s1)
		e.storeVtri(c, t)
		e.storeVtri(m, t)
		tp.refresh(t)
		tp.refresh(s1)
		return 2
	}

	n := r.n[ei]
	en := tp.find(n, b)
	d := tp.tri[n].v[(en+2)%3]
	nDB := tp.tri[n].n[(en+2)%3]
	s2 := p.slots[1]

	tp.tri[t] = triRec{v: [3]int32{a, m, c}, n: [3]int32{s2, s1, tCA}}
	tp.tri[s1] = triRec{v: [3]int32{m, b, c}, n: [3]int32{n, tBC, t}}
	nAD := tp.tri[n].n[(en+1)%3]
	tp.tri[n] = triRec{v: [3]int32{b, m, d}, n: [3]int32{s1, s2, nDB}}
	tp.tri[s2] = triRec{v: [3]int32{m, a, d}, n: [3]int32{t, nAD, n}}
	e.patch(p.Pat[0], s1) // tBC: t → s1
	e.patch(p.Pat[1], s2) // nAD: n → s2
	e.storeVtri(a, t)
	e.storeVtri(b, s1)
	e.storeVtri(c, t)
	e.storeVtri(d, s2)
	e.storeVtri(m, t)
	for _, s := range [4]int32{t, s1, n, s2} {
		tp.refresh(s)
	}
	return 4
}

// --- collapse ------------------------------------------------------------

// evalCollapse plans the contraction of edge ei of triangle t when its
// metric length is below 1/band. Candidate forms are tried in order
// until one validates: contract onto either endpoint (interior endpoints
// die in preference to boundary ones), then — for fully interior edges —
// contract onto the edge midpoint, which halves the created edge lengths
// when both endpoint contractions would leave an overlong edge. A
// boundary vertex may only die into its boundary neighbor when it lies
// strictly between its two boundary neighbors on an exactly straight
// segment, so the domain shape never changes. A form that fails leaves
// nothing in buf: its partial cavity is truncated before the next form is
// tried.
func (e *engine) evalCollapse(buf *evalBuf, t int32, ei int) bool {
	tp := e.tp
	a, b := tp.edgeVerts(t, ei)
	l := tp.geo[t].len[ei]
	if l >= 1/e.opt.Band {
		return false
	}
	prio := 1 / math.Max(l, 1e-300)
	type cand struct {
		die, keep int32
		mid       bool
	}
	var cands [4]cand
	nc := 0
	switch {
	case !tp.vb[a] && !tp.vb[b]:
		cands[0] = cand{a, b, false}
		cands[1] = cand{b, a, false}
		cands[2] = cand{a, b, true}
		cands[3] = cand{b, a, true}
		nc = 4
	case !tp.vb[a]:
		cands[0] = cand{a, b, false}
		nc = 1
	case !tp.vb[b]:
		cands[0] = cand{b, a, false}
		nc = 1
	case tp.tri[t].n[ei] < 0:
		// Both endpoints on the boundary and the edge itself a boundary
		// edge: either endpoint may die, but only along an exactly
		// straight boundary. (A chord between two boundary vertices can
		// never collapse.)
		for _, d := range [2][2]int32{{a, b}, {b, a}} {
			if e.collinearBoundary(d[0], d[1], buf.s1) {
				cands[nc] = cand{d[0], d[1], false}
				nc++
			}
		}
	}
	for i := 0; i < nc; i++ {
		mark := len(buf.cav)
		if e.tryCollapse(buf, t, ei, prio, cands[i].die, cands[i].keep, cands[i].mid) {
			return true
		}
		buf.cav = buf.cav[:mark]
	}
	return false
}

// tryCollapse validates one contraction form (die onto keep, which stays
// put or — mid — moves to the edge midpoint) and appends its plan to buf,
// or reports false with part of a cavity possibly left on buf.cav.
func (e *engine) tryCollapse(buf *evalBuf, t int32, ei int, prio float64, die, keep int32, mid bool) bool {
	tp := e.tp
	ring, interior := tp.ring(die, buf.s1)
	wantDying := 2
	if !interior {
		wantDying = 1
	}
	if len(ring) < wantDying+1 {
		return false // nothing would survive to hold keep
	}
	mark := len(buf.cav)
	p := opPlan{Kind: opCollapse, Prio: prio, T: t, E: int8(ei), V: die, Keep: keep}
	keepPos, keepMet := tp.pts[keep], tp.met[keep]
	if mid {
		keepPos = tp.pts[die].Mid(tp.pts[keep])
		if e.opt.Resample != nil {
			keepMet = e.opt.Resample(keepPos)
		} else {
			keepMet = metric.Interp(tp.met[die], tp.met[keep], 0.5)
		}
		p.Mid, p.Pos, p.Met = true, keepPos, keepMet
	}
	// Gather die's neighbor vertices and the dying triangles, and check
	// every rewritten triangle stays strictly CCW.
	dieNbrs := buf.nbrs // each ring triangle adds at most two
	dying, nd := 0, 0
	addNbr := func(v int32) {
		for i := 0; i < nd; i++ {
			if dieNbrs[i] == v {
				return
			}
		}
		dieNbrs[nd] = v
		nd++
	}
	for _, rt := range ring {
		buf.cav = append(buf.cav, rt)
		r := tp.tri[rt]
		if tp.find(rt, keep) >= 0 {
			if dying >= wantDying {
				return false
			}
			dr := dyingRef{D: rt, K: -1, R: -1}
			for _, v := range r.v {
				if v != die && v != keep {
					dr.W = v
					// The edge not containing die leads outside (K); the
					// edge not containing keep leads to the ring (R).
					for y := 0; y < 3; y++ {
						u, w := r.v[y], r.v[(y+1)%3]
						if u != die && w != die {
							dr.K = r.n[y]
						}
						if u != keep && w != keep {
							dr.R = r.n[y]
						}
					}
				}
				if v != die {
					addNbr(v)
				}
			}
			dr.KE = tp.nbrEdge(dr.K, rt)
			p.Dy[dying] = dr
			dying++
			continue
		}
		var q [3]geom.Point
		for i, v := range r.v {
			if v == die {
				q[i] = keepPos
			} else {
				q[i] = tp.pts[v]
				addNbr(v)
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return false
		}
	}
	if dying != wantDying {
		return false
	}
	p.NDy = int8(wantDying)
	isW := func(v int32) bool {
		return v == p.Dy[0].W || (wantDying == 2 && v == p.Dy[1].W)
	}
	// New edges from keep must stay below the split threshold, so a
	// collapse never creates work for the next split pass. When keep
	// moves to the midpoint its surviving W edges change length too, so
	// they are re-measured rather than skipped.
	for i := 0; i < nd; i++ {
		v := dieNbrs[i]
		if v == keep || (!mid && isW(v)) {
			continue // existing edges, unchanged by the collapse
		}
		if metric.EdgeLen(keepPos, tp.pts[v], keepMet, tp.met[v]) >= e.opt.Band {
			return false
		}
	}
	// Link condition: a vertex adjacent to both die and keep must be a
	// dying triangle's third vertex; any other common neighbor would
	// pinch the contraction into a non-manifold bowtie. A moving keep
	// additionally requires its surviving ring triangles to stay strictly
	// CCW, its existing edges to stay short enough, and the triangles
	// join the cavity (the commit changes their shape).
	keepRing, _ := tp.ring(keep, buf.s2)
	if len(keepRing) == 0 {
		return false
	}
	for _, kt := range keepRing {
		r := tp.tri[kt]
		dyingTri := tp.find(kt, die) >= 0
		for _, v := range r.v {
			if v == keep || v == die || isW(v) {
				continue
			}
			for i := 0; i < nd; i++ {
				if dieNbrs[i] == v {
					return false
				}
			}
		}
		if !mid || dyingTri {
			continue
		}
		var q [3]geom.Point
		for i, v := range r.v {
			if v == keep {
				q[i] = keepPos
			} else {
				q[i] = tp.pts[v]
				if metric.EdgeLen(keepPos, tp.pts[v], keepMet, tp.met[v]) >= e.opt.Band {
					return false
				}
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return false
		}
		buf.cav = append(buf.cav, kt)
	}
	buf.push(&p, mark)
	return true
}

// collinearBoundary reports whether boundary vertex die lies strictly
// between its two boundary neighbors on an exactly straight segment and
// keep is one of those neighbors.
func (e *engine) collinearBoundary(die, keep int32, scratch []int32) bool {
	tp := e.tp
	ring, interior := tp.ring(die, scratch)
	if interior || len(ring) == 0 {
		return false
	}
	// In an open CCW fan the boundary neighbors are the first triangle's
	// CCW-next vertex and the last triangle's CCW-prev vertex.
	first, last := ring[0], ring[len(ring)-1]
	i0 := tp.find(first, die)
	i1 := tp.find(last, die)
	if i0 < 0 || i1 < 0 {
		return false
	}
	n0 := tp.tri[first].v[(i0+1)%3] // along the boundary, CW side
	n1 := tp.tri[last].v[(i1+2)%3]  // along the boundary, CCW side
	if n0 != keep && n1 != keep {
		return false
	}
	z := n0
	if z == keep {
		z = n1
	}
	if geom.Orient2DSign(tp.pts[z], tp.pts[die], tp.pts[keep]) != 0 {
		return false
	}
	// Strictly between: the segments z→die and die→keep point the same
	// way.
	return tp.pts[die].Sub(tp.pts[z]).Dot(tp.pts[keep].Sub(tp.pts[die])) > 0
}

// commitCollapse contracts die onto keep: ring triangles containing
// keep die, the rest are rewritten in place with die replaced by keep,
// and adjacency across each dying triangle is stitched between its two
// surviving neighbors. The dying slots are recycled by the sequential
// post-commit phase. Every surviving cavity triangle is refreshed — die's
// ring, and keep's when keep moves — and their number returned.
func (e *engine) commitCollapse(p *opPlan) int {
	tp := e.tp
	die, keep := p.V, p.Keep
	if p.Mid {
		tp.pts[keep] = p.Pos
		tp.met[keep] = p.Met
		tp.lmet[keep] = p.Met.Log()
	}
	dying := func(rt int32) bool {
		for i := 0; i < int(p.NDy); i++ {
			if p.Dy[i].D == rt {
				return true
			}
		}
		return false
	}
	var survivor int32 = -1
	for _, rt := range p.Cav {
		if dying(rt) {
			continue
		}
		r := &tp.tri[rt]
		for i := range r.v {
			if r.v[i] == die {
				r.v[i] = keep
			}
		}
		tp.refresh(rt)
		if survivor < 0 {
			survivor = rt
		}
	}
	for i := 0; i < int(p.NDy); i++ {
		dr := p.Dy[i]
		if dr.R >= 0 {
			// R is ours (cavity): scanning its words is single-writer.
			tp.setNeighbor(dr.R, dr.D, dr.K)
		}
		if dr.K >= 0 {
			tp.tri[dr.K].n[dr.KE] = dr.R
		}
		if atomic.LoadInt32(&tp.vtri[dr.W]) == dr.D {
			tgt := dr.R
			if tgt < 0 {
				tgt = dr.K
			}
			e.storeVtri(dr.W, tgt)
		}
	}
	e.storeVtri(keep, survivor)
	atomic.StoreInt32(&tp.vtri[die], -1)
	return len(p.Cav) - int(p.NDy)
}

// --- swap ----------------------------------------------------------------

// evalSwap plans the diagonal flip of interior edge ei of triangle t
// when the flip strictly improves the worse metric quality of the pair.
// The old pair's qualities are the cached ones in the rotations that
// start at the anchor edge; the new triangles take their four outer edges
// from the cache and measure only the flipped diagonal, once in each
// direction. The new pair's quality is a min, so a first new triangle
// that misses the bar rejects the flip without the second.
func (e *engine) evalSwap(buf *evalBuf, t int32, ei int) bool {
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
	// The flipped pair must be strictly CCW (quad convexity).
	if geom.Orient2DSign(pa, pd, pc) <= 0 || geom.Orient2DSign(pd, pb, pc) <= 0 {
		return false
	}
	mc, md := tp.met[c], tp.met[d]
	la, lb, lc, ld := tp.lmet[a], tp.lmet[b], tp.lmet[c], tp.lmet[d]
	gt, gn := &tp.geo[t], &tp.geo[n]
	qOld := math.Min(gt.q[ei], gn.q[en]) // (a, b, c) and (b, a, d)
	// (a, d, c): a→d is n's edge en+1, c→a is t's edge ei+2.
	qNew := metric.TriQualityLens(pa, pd, pc, la, ld, lc,
		gn.len[(en+1)%3], metric.EdgeLen(pd, pc, md, mc), gt.len[(ei+2)%3])
	buf.evals++
	if qNew <= qOld+qualityGain {
		return false
	}
	// (d, b, c): d→b is n's edge en+2, b→c is t's edge ei+1.
	qNew = math.Min(qNew, metric.TriQualityLens(pd, pb, pc, ld, lb, lc,
		gn.len[(en+2)%3], gt.len[(ei+1)%3], metric.EdgeLen(pc, pd, mc, md)))
	buf.evals++
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

// commitSwap flips the diagonal: t = (a,b,c) and n = (b,a,d) become
// (a,d,c) in slot t and (d,b,c) in slot n, and both slots are refreshed.
func (e *engine) commitSwap(p *opPlan) int {
	tp := e.tp
	t := p.T
	ei := int(p.E)
	r := tp.tri[t]
	a, b := r.v[ei], r.v[(ei+1)%3]
	c := r.v[(ei+2)%3]
	n := r.n[ei]
	en := tp.find(n, b)
	d := tp.tri[n].v[(en+2)%3]
	tBC := r.n[(ei+1)%3]
	tCA := r.n[(ei+2)%3]
	nAD := tp.tri[n].n[(en+1)%3]
	nDB := tp.tri[n].n[(en+2)%3]

	tp.tri[t] = triRec{v: [3]int32{a, d, c}, n: [3]int32{nAD, n, tCA}}
	tp.tri[n] = triRec{v: [3]int32{d, b, c}, n: [3]int32{nDB, tBC, t}}
	e.patch(p.Pat[0], t) // nAD: n → t
	e.patch(p.Pat[1], n) // tBC: t → n
	e.storeVtri(a, t)
	e.storeVtri(b, n)
	e.storeVtri(c, t)
	e.storeVtri(d, t)
	tp.refresh(t)
	tp.refresh(n)
	return 2
}

// --- smooth --------------------------------------------------------------

// evalSmooth plans a metric-weighted Laplacian move of interior vertex
// v: the target is the neighbor average weighted by metric edge length
// (overlong directions pull harder), damped halfway, accepted only when
// every ring triangle stays strictly CCW and the worst ring quality
// strictly improves. The weights and the old ring quality read the
// geometry cache; each new ring triangle measures only its two edges at
// v. The new quality is a running min, so the first ring triangle that
// takes it to the bar rejects the move.
func (e *engine) evalSmooth(buf *evalBuf, v int32) bool {
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
		w := tp.geo[rt].len[i] // v → nb
		sx += w * tp.pts[nb].X
		sy += w * tp.pts[nb].Y
		wsum += w
		qOld = math.Min(qOld, tp.geo[rt].q[0])
	}
	if wsum <= 0 {
		return false
	}
	target := geom.Pt(sx/wsum, sy/wsum)
	pos := tp.pts[v].Lerp(target, 0.5)
	if pos == tp.pts[v] {
		return false
	}
	// The candidate tensor's logarithm: once per candidate, not once per
	// ring triangle.
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
		iv := 0
		for i, vv := range r.v {
			if vv == v {
				q[i], ms[i], ls[i] = pos, mm, lm
				iv = i
			} else {
				q[i], ms[i], ls[i] = tp.pts[vv], tp.met[vv], tp.lmet[vv]
			}
		}
		if geom.Orient2DSign(q[0], q[1], q[2]) <= 0 {
			return false
		}
		// The edge opposite v keeps its cached length; the two at v move.
		l := tp.geo[rt].len
		in, ip := (iv+1)%3, (iv+2)%3
		l[iv] = metric.EdgeLen(q[iv], q[in], ms[iv], ms[in])
		l[ip] = metric.EdgeLen(q[ip], q[iv], ms[ip], ms[iv])
		qNew = math.Min(qNew, metric.TriQualityLens(q[0], q[1], q[2], ls[0], ls[1], ls[2], l[0], l[1], l[2]))
		buf.evals++
		if qNew <= qOld+qualityGain {
			return false
		}
	}
	mark := len(buf.cav)
	p := opPlan{Kind: opSmooth, Prio: qNew - qOld, T: -1, V: v, Pos: pos, Met: mm}
	buf.cav = append(buf.cav, ring...)
	buf.push(&p, mark)
	return true
}

// commitSmooth moves the vertex and refreshes its ring. The vertex claim
// over its full ring guarantees nobody concurrently reads the old
// coordinates.
func (e *engine) commitSmooth(p *opPlan) int {
	tp := e.tp
	tp.pts[p.V] = p.Pos
	tp.met[p.V] = p.Met
	tp.lmet[p.V] = p.Met.Log()
	for _, rt := range p.Cav {
		tp.refresh(rt)
	}
	return len(p.Cav)
}
