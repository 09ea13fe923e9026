package delaunay

// Concurrent point insertion: the intra-rank parallel Bowyer–Watson
// engine. The paper parallelizes across subdomains; this file parallelizes
// inside one, following the independent-set batching of Spielman–Teng–
// Üngör's parallel Delaunay refinement (and TriMe++'s multi-threaded
// variant): a batch of pending points is located and its cavities computed
// concurrently against a frozen topology snapshot, a sequential sweep
// picks a conflict-free subset, and the selected insertions commit from
// multiple workers into pre-assigned triangle slots. Conflicted points
// retry in the next round against the updated topology.
//
// The pipeline does not call this engine (DESIGN §12: measured 30x slower
// than the sequential kernel on boundary-layer leaves). It stays as the
// benchmark's delaunay.kw2_* probe and as the second implementation
// FuzzAuditDelaunay checks the audit against.
//
// Two cavities may commit concurrently only when they are halo-disjoint:
// neither shares a cavity triangle with the other's cavity, and neither's
// cavity appears among the other's halo triangles (the neighbors just
// outside a cavity's boundary, cavityEdge.t). Cavity-disjointness makes
// the removed-triangle sets independent; halo-disjointness additionally
// guarantees that everything a commit writes outside its own slots — the
// back-pointer t.tris[halo].N[te] — is a triangle the other commit never
// removes, and that each plan's precomputed boundary snapshot stays valid.
// Under that rule the concurrent commit is equivalent to inserting the
// selected points sequentially in selection order, so one round's output
// is a function of the batch alone: the engine is deterministic for every
// worker count >= 2 (worker count only changes who does the work, never
// what is computed).
//
// Slot pre-assignment exploits the cavity Euler property: a cavity of K
// triangles has K+2 boundary edges, so each commit reincarnates its own K
// removed slots and takes exactly two extra slots handed out by the
// sequential selection sweep. The parallel phase therefore never touches
// the shared append path or the free list.
//
// Sharded state, per stripe: the point-location walk seed (the sequential
// kernel's t.last) and the cavity search's visited marks (t.marks), one
// word per triangle, which is why they are not per pending point; per
// pending point: the cavity buffers (cavScratch). The Shewchuk predicate
// arenas are already pooled per-goroutine by internal/geom. Shared
// vertex-to-triangle seeds (t.vtri) are the one write that can target the
// same element from two independent commits (a shared cavity-boundary
// vertex), so those stores are atomic; either winner is a valid incidence.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"pamg2d/internal/geom"
)

// ParallelOptions configures the concurrent insertion engine.
type ParallelOptions struct {
	// Workers is the number of insertion goroutines. 1 (and any negative
	// value) selects the sequential kernel unchanged; 0 resolves to
	// runtime.NumCPU().
	Workers int
}

// resolveWorkers maps the Workers convention (0 = NumCPU) to a count.
func (o ParallelOptions) resolveWorkers() int {
	if o.Workers == 0 {
		return runtime.NumCPU()
	}
	return o.Workers
}

// ParStats reports what the engine did during one build. A build that fell
// back to the sequential kernel (Workers <= 1) reports zero rounds.
type ParStats struct {
	Workers    int // resolved worker count
	Rounds     int // independent-set select+commit rounds
	Inserted   int // points committed by the concurrent phase
	Conflicts  int // insertions deferred to a later round by cavity conflicts
	Sequential int // points that took the sequential path (duplicates, splits, odd cavities)
}

// insertPlan is one pending point's phase-1 result: its location, its
// cavity (triangles plus boundary edges) computed against the round's
// frozen topology, and — once selected — its vertex id and the triangle
// slots its fan will occupy.
type insertPlan struct {
	pt    geom.Point
	loc   location
	err   error // ErrDuplicate or ErrOutside discovered during location
	dupV  int32 // existing vertex for ErrDuplicate
	seq   bool  // must take the sequential path
	s     cavScratch
	v     int32
	slots []int32
}

// parInserter runs the round loop for one bulk insertion.
type parInserter struct {
	t       *Triangulation
	workers int
	seeds   []int32    // per-stripe point-location walk seed (the sharded t.last)
	marks   []triMarks // per-stripe cavity-search visited set (the sharded t.marks)
	plans   []insertPlan
	batch   []int32 // input-point indices in this round's batch
	retry   []int32
	sel     []int32 // batch positions selected this round
	seqList []int32 // batch positions routed to the sequential path

	// claimCav/claimHalo mark, per triangle and per round (epoch), whether
	// a selected plan's cavity (respectively halo) touches it. A candidate
	// conflicts when any of its cavity triangles is already claimed as
	// cavity or halo, or any of its halo triangles is claimed as cavity;
	// halo/halo sharing is harmless and allowed.
	claimCav  []uint32
	claimHalo []uint32
	epoch     uint32

	jobs  chan func()
	phase sync.WaitGroup
	life  sync.WaitGroup
	stats ParStats

	debugCheck bool // tests: validate invariants after every round
	debugFull  bool // tests: include the O(n^2) Delaunay property check
}

// BuildParallel is Build with the bulk point-insertion phase executed by a
// team of workers using independent-set batched insertion. Segment
// recovery, carving, and every later stage stay sequential. Workers <= 1
// delegates to Build, byte for byte. The returned stats are valid even
// when the error is non-nil.
func BuildParallel(in Input, opt ParallelOptions) (*Triangulation, *ParStats, error) {
	workers := opt.resolveWorkers()
	if workers <= 1 {
		t, err := Build(in)
		return t, &ParStats{Workers: 1}, err
	}
	if len(in.Points) < 3 {
		return nil, &ParStats{Workers: workers}, fmt.Errorf("delaunay: need at least 3 points, have %d", len(in.Points))
	}
	bb := in.Frame
	if bb == (geom.BBox{}) || bb.Empty() {
		bb = geom.BBoxOf(in.Points)
	}
	t := NewCap(bb, len(in.Points))
	order := insertionOrder(in, t)

	vmap := make([]int32, len(in.Points))
	ins := &parInserter{t: t, workers: workers}
	err := ins.run(in.Points, order, vmap)
	ins.stats.Workers = workers
	if err != nil {
		return nil, &ins.stats, err
	}
	for _, s := range in.Segments {
		a, b := vmap[s[0]], vmap[s[1]]
		if a == b {
			continue
		}
		if err := t.InsertSegment(a, b); err != nil {
			return nil, &ins.stats, err
		}
	}
	t.Carve(in.Holes)
	return t, &ins.stats, nil
}

// TriangulateParallel is Triangulate on the concurrent engine.
func TriangulateParallel(in Input, opt ParallelOptions) (*Result, *ParStats, error) {
	t, ps, err := BuildParallel(in, opt)
	if err != nil {
		return nil, ps, err
	}
	return t.Extract(), ps, nil
}

// run drives the round loop: phase 1 locates and digs cavities in
// parallel, phase 2 sequentially selects a conflict-free set and
// pre-assigns vertices and slots, phase 3 commits the selected fans in
// parallel, phase 4 sequentially handles the points that cannot commit
// concurrently. Deferred (conflicted) points lead the next batch.
func (ins *parInserter) run(pts []geom.Point, order []int32, vmap []int32) error {
	t := ins.t
	batchCap := 16 * ins.workers
	if batchCap < 32 {
		batchCap = 32
	}
	if batchCap > 256 {
		batchCap = 256
	}
	ins.plans = make([]insertPlan, batchCap)
	ins.seeds = make([]int32, ins.workers)
	for w := range ins.seeds {
		ins.seeds[w] = t.last
	}
	ins.marks = make([]triMarks, ins.workers)
	ins.jobs = make(chan func())
	ins.life.Add(ins.workers)
	for w := 0; w < ins.workers; w++ {
		go func() {
			defer ins.life.Done()
			for f := range ins.jobs {
				f()
			}
		}()
	}
	defer func() {
		close(ins.jobs)
		ins.life.Wait()
	}()

	pos := 0
	for pos < len(order) || len(ins.retry) > 0 {
		ins.batch = append(ins.batch[:0], ins.retry...)
		ins.retry = ins.retry[:0]
		for len(ins.batch) < batchCap && pos < len(order) {
			ins.batch = append(ins.batch, order[pos])
			pos++
		}
		ins.stats.Rounds++
		ins.runPhase(ins.preparePhase(pts))
		ins.selectPlans(vmap)
		ins.runPhase(ins.commitPhase())
		ins.stats.Inserted += len(ins.sel)
		if n := len(ins.sel); n > 0 {
			// Reseed the sequential walk near the round's last commit.
			t.last = ins.plans[ins.sel[n-1]].slots[0]
		}
		for _, bi := range ins.seqList {
			pl := &ins.plans[bi]
			idx := ins.batch[bi]
			if pl.err == ErrDuplicate {
				vmap[idx] = pl.dupV
				continue
			}
			v, err := t.InsertPoint(pts[idx])
			if err == ErrDuplicate {
				vmap[idx] = v
				continue
			}
			if err != nil {
				return fmt.Errorf("delaunay: inserting point %d %v: %w", idx, pts[idx], err)
			}
			vmap[idx] = v
			ins.stats.Sequential++
		}
		if ins.debugCheck {
			if err := t.checkInvariants(ins.debugFull); err != nil {
				return fmt.Errorf("round %d (batch %d, selected %d): %w",
					ins.stats.Rounds, len(ins.batch), len(ins.sel), err)
			}
			for v := range t.vtri {
				ti := t.vtri[v]
				if ti == invalid || t.tris[ti].Dead ||
					(t.tris[ti].V[0] != int32(v) && t.tris[ti].V[1] != int32(v) && t.tris[ti].V[2] != int32(v)) {
					return fmt.Errorf("round %d (batch %d, selected %d): vtri[%d]=%d stale",
						ins.stats.Rounds, len(ins.batch), len(ins.sel), v, ti)
				}
			}
		}
	}
	return nil
}

// runPhase enqueues one stripe-bound job per worker slot on the build's
// team and waits for all stripes to finish. The jobs carry the stripe id
// rather than relying on which goroutine dequeues them — a fast worker may
// execute two stripes while a slow one executes none, but every stripe
// runs exactly once.
// The WaitGroup barrier orders each phase's writes before the next phase's
// reads, and makes each seed single-writer within a phase.
func (ins *parInserter) runPhase(f func(w int)) {
	ins.phase.Add(ins.workers)
	for w := 0; w < ins.workers; w++ {
		stripe := w
		ins.jobs <- func() { f(stripe); ins.phase.Done() }
	}
	ins.phase.Wait()
}

// preparePhase returns phase 1: locate each batch point and compute its
// cavity against the frozen topology. Work is striped by batch position so
// the assignment is deterministic and the spatially coherent batch keeps
// each worker's walk local.
func (ins *parInserter) preparePhase(pts []geom.Point) func(w int) {
	t := ins.t
	return func(w int) {
		seed := &ins.seeds[w]
		for i := w; i < len(ins.batch); i += ins.workers {
			pl := &ins.plans[i]
			pl.pt = pts[ins.batch[i]]
			pl.err = nil
			pl.seq = false
			loc := t.locateFrom(*seed, pl.pt)
			pl.loc = loc
			switch loc.kind {
			case locOutside:
				pl.err = ErrOutside
				pl.seq = true
				continue
			case locVertex:
				pl.err = ErrDuplicate
				pl.dupV = loc.v
				pl.seq = true
				continue
			case locEdge:
				if t.tris[loc.t].C[loc.e] {
					// Constrained-segment split: sequential path only.
					pl.seq = true
					continue
				}
			}
			*seed = loc.t
			t.computeCavityInto(pl.pt, loc, &pl.s, &ins.marks[w])
		}
	}
}

// selectPlans is phase 2, the sequential sweep in batch order: route
// sequential-only plans aside, defer conflicted plans to the next round,
// and for each selected plan allocate its vertex and pre-assign its fan
// slots (its own cavity slots plus two extras).
func (ins *parInserter) selectPlans(vmap []int32) {
	t := ins.t
	ins.sel = ins.sel[:0]
	ins.seqList = ins.seqList[:0]
	ins.epoch++
	for len(ins.claimCav) < len(t.tris) {
		ins.claimCav = append(ins.claimCav, 0)
		ins.claimHalo = append(ins.claimHalo, 0)
	}
	for i := range ins.batch {
		pl := &ins.plans[i]
		if pl.seq {
			ins.seqList = append(ins.seqList, int32(i))
			continue
		}
		if len(pl.s.cavityEdges) != len(pl.s.cavityTris)+2 {
			// A cavity that is not a simple triangulated star polygon
			// (possible only in degenerate inputs) breaks the K+2 slot
			// budget; insert it alone on the sequential path.
			ins.seqList = append(ins.seqList, int32(i))
			continue
		}
		conflict := false
		for _, c := range pl.s.cavityTris {
			if ins.claimCav[c] == ins.epoch || ins.claimHalo[c] == ins.epoch {
				conflict = true
				break
			}
		}
		if !conflict {
			for k := range pl.s.cavityEdges {
				if h := pl.s.cavityEdges[k].t; h != invalid && ins.claimCav[h] == ins.epoch {
					conflict = true
					break
				}
			}
		}
		if conflict {
			ins.retry = append(ins.retry, ins.batch[i])
			ins.stats.Conflicts++
			continue
		}
		for _, c := range pl.s.cavityTris {
			ins.claimCav[c] = ins.epoch
		}
		for k := range pl.s.cavityEdges {
			if h := pl.s.cavityEdges[k].t; h != invalid {
				ins.claimHalo[h] = ins.epoch
			}
		}
		pl.v = t.addPoint(pl.pt)
		vmap[ins.batch[i]] = pl.v
		pl.slots = append(pl.slots[:0], pl.s.cavityTris...)
		pl.slots = append(pl.slots, t.allocSlot(), t.allocSlot())
		ins.sel = append(ins.sel, int32(i))
	}
}

// commitPhase returns phase 3: write the selected fans concurrently.
func (ins *parInserter) commitPhase() func(w int) {
	t := ins.t
	return func(w int) {
		for k := w; k < len(ins.sel); k += ins.workers {
			pl := &ins.plans[ins.sel[k]]
			t.commitCavityPar(pl.v, &pl.s, pl.slots)
		}
	}
}

// allocSlot hands out one triangle slot on the sequential path: a free
// (dead) slot if one exists, else a fresh appended one. The placeholder is
// marked dead until a commit reincarnates it.
func (t *Triangulation) allocSlot() int32 {
	if n := len(t.free); n > 0 {
		idx := t.free[n-1]
		t.free = t.free[:n-1]
		return idx
	}
	t.tris = append(t.tris, Tri{Dead: true})
	return int32(len(t.tris) - 1)
}

// commitCavityPar is commitCavity for the concurrent engine: the fan
// triangles land in pre-assigned slots (the plan's own cavity slots plus
// the two extras), so no shared allocation state is touched. The only
// writes outside the plan's slots are the halo back-pointers — distinct
// N-array words under the halo-disjointness rule — and the vertex
// incidence seeds, which are atomic because independent cavities may share
// boundary vertices.
func (t *Triangulation) commitCavityPar(v int32, s *cavScratch, slots []int32) {
	open := s.fanOpen[:0]
	match := func(other int32, fromV bool) (fanEdge, bool) {
		for i := range open {
			if open[i].other == other && open[i].fromV == fromV {
				fe := open[i]
				open[i] = open[len(open)-1]
				open = open[:len(open)-1]
				return fe, true
			}
		}
		return fanEdge{}, false
	}
	for k := range s.cavityEdges {
		ce := &s.cavityEdges[k]
		nt := slots[k]
		tr := Tri{V: [3]int32{v, ce.a, ce.b}, N: [3]int32{invalid, ce.t, invalid}, Outside: ce.outside}
		tr.C[1] = ce.c
		t.tris[nt] = tr
		if ce.t != invalid {
			t.tris[ce.t].N[ce.te] = nt
		}
		atomic.StoreInt32(&t.vtri[ce.a], nt)
		atomic.StoreInt32(&t.vtri[ce.b], nt)
		if he, ok := match(ce.a, false); ok {
			t.link(nt, 0, he.tri, he.e)
		} else {
			open = append(open, fanEdge{other: ce.a, tri: nt, e: 0, fromV: true})
		}
		if he, ok := match(ce.b, true); ok {
			t.link(nt, 2, he.tri, he.e)
		} else {
			open = append(open, fanEdge{other: ce.b, tri: nt, e: 2, fromV: false})
		}
	}
	atomic.StoreInt32(&t.vtri[v], slots[0])
	s.fanOpen = open[:0]
}
