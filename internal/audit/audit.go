// Package audit is the mesh invariant-verification engine: a registry of
// pluggable Check implementations that verify, after the fact, the
// correctness properties the pipeline's algorithms are supposed to
// guarantee — exact-predicate (constrained-)Delaunay empty-circumcircle
// audits built on the pooled Shewchuk arena in internal/geom, topological
// checks (2-manifold edge incidence, consistent CCW orientation, no
// duplicate or orphan points, watertight boundary recovery), boundary-layer
// checks (ray ordering, extrusion monotonicity, intersection-freedom after
// ADT/Cohen–Sutherland resolution), and decoupling checks (every decoupling
// path edge survives as a conforming mesh edge, so no element straddles a
// path and neighboring sectors agree on their shared border).
//
// Checks audit a Snapshot — the final mesh plus whatever generation context
// is available (boundary layers, decoupling paths) — through the mesh's
// half-edge table, and through its points sorted by coordinates where a
// check is about coordinates. Every check has one shape: a begin, parts
// over ranges of its elements that audit independently, and a tail. Run
// and RunContext are the one executor: the parts run in chunks on a pool
// of goroutines in this process, and the findings fold in check order and
// then element order — the report is the sequential loop's, whatever the
// scheduling. The pipeline's audit stage, cmd/meshcheck,
// adaptation and bench/ all call it; the mesh it audits is one every
// process already holds, so it needs no fabric.
package audit

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

// Violation is one invariant failure, attributed to the check that found
// it and the offending element (-1 when the failure is not
// element-attributable, e.g. an orphan point or a missing path edge).
type Violation struct {
	Check   string `json:"check"`
	Element int    `json:"element"`
	Detail  string `json:"detail"`
}

func (v Violation) String() string {
	var b strings.Builder
	b.WriteString(v.Check)
	if v.Element >= 0 {
		fmt.Fprintf(&b, ": element %d", v.Element)
	}
	b.WriteString(": ")
	b.WriteString(v.Detail)
	return b.String()
}

// CheckStat is one check's execution record: wall time, heap allocation
// delta, elements covered, and how many violations it found. The wall time
// is the sum over the check's jobs (CPU time, which can exceed the audit's
// wall clock) and the allocation count is a best-effort sum measured per
// job on a process-wide heap counter, so concurrent jobs bleed into each
// other's numbers.
type CheckStat struct {
	Name       string        `json:"name"`
	Wall       time.Duration `json:"wall_ns"`
	Allocs     uint64        `json:"allocs"`
	Elements   int           `json:"elements"`
	Violations int           `json:"violations"`
	Skipped    bool          `json:"skipped,omitempty"`
}

// Report is the outcome of an audit: per-check execution records and every
// violation found (capped per check; Violations counts in CheckStat are
// exact even when the recorded list is truncated).
type Report struct {
	Checks     []CheckStat `json:"checks"`
	Violations []Violation `json:"violations"`
}

// Ok reports whether the audit found no violations.
func (r *Report) Ok() bool {
	for _, c := range r.Checks {
		if c.Violations > 0 {
			return false
		}
	}
	return len(r.Violations) == 0
}

// Error converts a failed report into an *Error, or nil when the report is
// clean.
func (r *Report) Error() error {
	if r.Ok() {
		return nil
	}
	return &Error{Report: r}
}

// Error is the typed failure a violating audit surfaces: it carries the
// full report so callers can attribute every violation, while the message
// summarizes the first few.
type Error struct {
	Report *Report
}

func (e *Error) Error() string {
	total := 0
	for _, c := range e.Report.Checks {
		total += c.Violations
	}
	var b strings.Builder
	fmt.Fprintf(&b, "audit: %d violation(s)", total)
	for i, v := range e.Report.Violations {
		if i == 3 {
			b.WriteString("; ...")
			break
		}
		b.WriteString("; ")
		b.WriteString(v.String())
	}
	return b.String()
}

// maxRecorded caps the violations kept per check so a thoroughly corrupted
// mesh cannot balloon the report; the per-check counts stay exact.
const maxRecorded = 256

// Reporter collects one check run's violations. The engine fills in the
// check name.
type Reporter struct {
	check string
	count int
	out   []Violation
}

// NewReporter returns a reporter for one execution of the named check.
func NewReporter(check string) *Reporter {
	return &Reporter{check: check}
}

// Reportf records a violation against element elem (-1 when the violation
// is not element-attributable).
func (r *Reporter) Reportf(elem int, format string, args ...any) {
	r.count++
	if r.count > maxRecorded {
		return
	}
	r.out = append(r.out, Violation{
		Check:   r.check,
		Element: elem,
		Detail:  fmt.Sprintf(format, args...),
	})
}

// Count returns the exact number of violations reported, including any
// beyond the recording cap.
func (r *Reporter) Count() int { return r.count }

// Violations returns the recorded violations.
func (r *Reporter) Violations() []Violation { return r.out }

// Check is one pluggable mesh invariant verification. Begin runs once and
// returns the parts, which audit ranges of the check's own elements (the
// triangles, the points, the path edges, ...) independently of each
// other; the tail runs once every part is done and audits what needs them
// all. The findings list as Begin's, then the parts' in element order,
// then the tail's: the order of one pass that calls Begin, Part over
// every element and Tail.
type Check interface {
	// Name identifies the check in reports and CLI selection.
	Name() string
	// Applicable reports whether the snapshot carries the inputs the check
	// needs (e.g. boundary-layer checks need the generation-time layers).
	Applicable(s *Snapshot) bool
	// Begin starts one execution of the check on s.
	Begin(s *Snapshot, rep *Reporter) Parts
}

// Parts is one execution of a check, after its Begin.
type Parts interface {
	// Size is the number of elements the parts cover.
	Size() int
	// Part audits elements [from, to); parts may run concurrently.
	Part(from, to int, rep *Reporter)
	// Tail runs after every part.
	Tail(rep *Reporter)
}

// elementParts are the parts of a check on s with no state to share and
// no tail: part audits elements [from, to) of n.
type elementParts struct {
	s    *Snapshot
	n    int
	part func(s *Snapshot, from, to int, rep *Reporter)
}

func (p elementParts) Size() int                        { return p.n }
func (p elementParts) Part(from, to int, rep *Reporter) { p.part(p.s, from, to, rep) }
func (elementParts) Tail(*Reporter)                     {}

// All returns the full check registry in execution order.
func All() []Check {
	return []Check{
		orientationCheck{},
		conformityCheck{},
		boundaryCheck{},
		delaunayCheck{},
		blayerCheck{},
		decoupleCheck{},
	}
}

// Structural returns the checks that need nothing beyond the mesh itself —
// the set cmd/meshcheck runs by default on a bare mesh file.
func Structural() []Check {
	return []Check{orientationCheck{}, conformityCheck{}, boundaryCheck{}}
}

// Adapted returns the profile for metric-adapted meshes: everything in
// All except the Delaunay empty-circumcircle check. Anisotropic
// adaptation deliberately trades the Delaunay property for metric
// conformity — stretched elements violate the Euclidean circumcircle
// criterion by design — while every structural and domain invariant must
// still hold.
func Adapted() []Check {
	var out []Check
	for _, c := range All() {
		if c.Name() == "delaunay" {
			continue
		}
		out = append(out, c)
	}
	return out
}

// ByName resolves a comma-separated check selection against the registry.
func ByName(names string) ([]Check, error) {
	var out []Check
	for _, raw := range strings.Split(names, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		found := false
		for _, c := range All() {
			if c.Name() == name {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			known := make([]string, 0, len(All()))
			for _, c := range All() {
				known = append(known, c.Name())
			}
			return nil, fmt.Errorf("audit: unknown check %q (have %s)", name, strings.Join(known, ", "))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("audit: empty check selection %q", names)
	}
	return out, nil
}

// Snapshot is the audit input: the mesh under test plus whatever
// generation-time context is available. Prepare must be called (once,
// before any concurrent check execution) to build the shared read-only
// lookup structures; Run and RunContext do this for you.
type Snapshot struct {
	// Mesh is the mesh under audit. Required.
	Mesh *mesh.Mesh

	// Layers, when non-nil, are the generation-time boundary layers; they
	// enable the boundary-layer checks and watertight surface recovery.
	Layers []*blayer.Layer
	// BL are the boundary-layer parameters the layers were generated with.
	BL blayer.Params

	// Paths, when non-nil, are the decoupling path edges (subdomain
	// borders, transition sector cuts, the boundary-layer outer boundary,
	// the near-body box border) as exact endpoint pairs; they enable the
	// decoupling check and exempt constrained edges from the Delaunay
	// audit.
	Paths [][2]geom.Point

	// Farfield, when non-empty, is the far-field bounding box; path edges
	// on its border legitimately bound only one triangle.
	Farfield geom.BBox

	// StrictDelaunay treats the mesh as one unconstrained Delaunay
	// triangulation: every interior edge must be empty-circumcircle with no
	// constraint exemptions, and the boundary must be a single convex loop.
	// Used for meshes that claim global Delaunayness (cmd/meshcheck
	// -delaunay); the pipeline's merged mesh is only piecewise Delaunay.
	StrictDelaunay bool

	prepared bool
	edges    mesh.HalfEdges // the mesh's half-edge table, by index
	// The neighbour table, by triangle edge 3i+e (the edge from vertex e
	// of triangle i), for triangles whose vertices are all in range:
	// twin is 3j+f of the last half-edge on the reverse of the edge (the
	// neighbour Mesh.Adjacency names) or -1 on the boundary, and shared
	// says another triangle has the edge in the same direction.
	twin   []int32
	shared []bool
	order  []int32  // point indices sorted by (X, Y, index)
	first  []int32  // lowest index of each point's coordinates
	paths  []uint64 // pairKey of each path edge's endpoints, sorted

	ahead []*ahead // the checks Start began
}

// Prepare builds the lookups every check reads: the half-edge table on a
// goroutine of its own while this one sorts the points, then the
// neighbour table off the half-edge table on every CPU. It is idempotent
// and must complete before checks run concurrently.
func (s *Snapshot) Prepare() {
	if s.prepared {
		return
	}
	pts := s.Mesh.Points
	built := make(chan struct{})
	go func() {
		s.edges = s.Mesh.HalfEdges()
		s.twin = make([]int32, 3*len(s.Mesh.Triangles))
		for i := range s.twin {
			s.twin[i] = -1
		}
		s.shared = make([]bool, len(s.twin))
		var wg sync.WaitGroup
		for _, rg := range chunks(len(pts), (len(pts)+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0)) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.pairEdges(int32(rg[0]), int32(rg[1]))
			}()
		}
		wg.Wait()
		close(built)
	}()
	s.order = geom.OrderXY(pts)
	s.first = make([]int32, len(pts))
	for k, i := range s.order {
		s.first[i] = i
		if k > 0 && pts[s.order[k-1]] == pts[i] {
			s.first[i] = s.first[s.order[k-1]]
		}
	}
	for _, pe := range s.Paths {
		a, b := s.at(pe[0]), s.at(pe[1])
		if len(a) > 0 && len(b) > 0 {
			s.paths = append(s.paths, pairKey(a[0], b[0]))
		}
	}
	slices.Sort(s.paths)
	<-built
	s.prepared = true
}

// pairEdges fills the neighbour table for the half-edges leaving
// vertices [from, to). Each pair of opposite runs u->v, v->u is paired
// from its lower end, with one search of the half-edge table, and twin's
// -1 stays where no reverse exists; so every entry has one writer,
// whichever goroutine owns the other end.
func (s *Snapshot) pairEdges(from, to int32) {
	te := func(h mesh.HalfEdge) int { return 3*h.Triangle() + h.Edge() }
	for u := from; u < to; u++ {
		out := s.edges.From(u)
		for lo := 0; lo < len(out); {
			v := out[lo].To()
			hi := lo + 1
			for hi < len(out) && out[hi].To() == v {
				hi++
			}
			run := out[lo:hi]
			for _, h := range run {
				s.shared[te(h)] = len(run) > 1
			}
			if u <= v {
				if back := s.edges.Find(v, u); len(back) > 0 {
					for _, h := range run {
						s.twin[te(h)] = int32(te(back[len(back)-1]))
					}
					for _, h := range back {
						s.twin[te(h)] = int32(te(run[len(run)-1]))
					}
				}
			}
			lo = hi
		}
	}
}

// pairKey is an undirected index pair as one sortable key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(min(a, b)))<<32 | uint64(uint32(max(a, b)))
}

// at returns the indices of the points at p, ascending: none when p is not
// a mesh point (a coordinate with a NaN never is, as it equals nothing).
func (s *Snapshot) at(p geom.Point) []int32 {
	pts := s.Mesh.Points
	lo, _ := slices.BinarySearchFunc(s.order, p, func(i int32, p geom.Point) int { return geom.Compare(pts[i], p) })
	hi := lo
	for hi < len(s.order) && pts[s.order[hi]] == p {
		hi++
	}
	return s.order[lo:hi]
}

// uses counts the triangles on the edge between coordinates p and q,
// through every index at either coordinate.
func (s *Snapshot) uses(p, q geom.Point) int {
	n := 0
	for _, a := range s.at(p) {
		for _, b := range s.at(q) {
			n += len(s.edges.Find(a, b))
			if p != q { // when p == q the loops visit (b, a) themselves
				n += len(s.edges.Find(b, a))
			}
		}
	}
	return n
}

// constrained reports whether the edge u-v lies on a decoupling path.
func (s *Snapshot) constrained(u, v int32) bool {
	_, ok := slices.BinarySearch(s.paths, pairKey(s.first[u], s.first[v]))
	return ok
}

// wellFormed reports whether t has three distinct in-range vertices.
func wellFormed(m *mesh.Mesh, t [3]int32) bool {
	return m.ValidRefs(t) && t[0] != t[1] && t[1] != t[2] && t[0] != t[2]
}

// onFarfieldBorder reports whether both endpoints lie on the far-field box
// perimeter (such edges legitimately bound a single triangle).
func (s *Snapshot) onFarfieldBorder(a, b geom.Point) bool {
	ff := s.Farfield
	if ff.Empty() || ff == (geom.BBox{}) {
		return false
	}
	on := func(p geom.Point) bool {
		return (p.X == ff.Min.X || p.X == ff.Max.X || p.Y == ff.Min.Y || p.Y == ff.Max.Y) && ff.Contains(p)
	}
	return on(a) && on(b)
}

// jobChunk is the element range of one part job: a few hundred
// microseconds of work, so the bench's meshes give every goroutine dozens
// of jobs while the per-job bookkeeping stays negligible.
const jobChunk = 2048

// chunks splits [0, n) into ranges of at most chunk elements, in order.
func chunks(n, chunk int) [][2]int {
	if n == 0 {
		return nil
	}
	out := make([][2]int, 0, (n+chunk-1)/chunk)
	for from := 0; from < n; from += chunk {
		out = append(out, [2]int{from, min(from+chunk, n)})
	}
	return out
}

// A LayerCheck is a check that reads only a snapshot's boundary layers
// (Layers and BL), never its mesh, so Start can run it before the mesh
// exists.
type LayerCheck interface {
	Check
	LayersOnly()
}

// Run is RunContext without cancellation. A check that panics re-panics on
// the caller's goroutine with the original value.
func Run(s *Snapshot, checks []Check) *Report {
	rep, err := RunContext(context.Background(), s, checks)
	if err != nil {
		// Under context.Background the only failure is a check that panicked.
		panic(err.(*checkPanic).value)
	}
	return rep
}

// RunContext executes the checks against the snapshot and returns the full
// report. Every check runs as its begin, parts and tail (execute) on up to
// GOMAXPROCS goroutines, and the findings fold in check order and, within
// a check, in job order, so the report is the sequential loop's: exact
// per-check counts and, per check, the first violations in element order.
// A check Start began on s is not run again: its findings are collected in
// its place. Cancelling ctx stops handing out jobs, and RunContext then
// returns the context's cause; a check that panics stops the audit the
// same way and comes back as an error naming the check.
func RunContext(ctx context.Context, s *Snapshot, checks []Check) (*Report, error) {
	s.Prepare()
	runs := make([]*checkRun, len(checks))
	var here []*checkRun
	for i, c := range checks {
		runs[i] = &checkRun{check: c}
		if c.Applicable(s) && s.started(c.Name()) == nil {
			here = append(here, runs[i])
		}
	}
	if err := execute(ctx, s, here, runtime.GOMAXPROCS(0)); err != nil {
		return nil, err
	}

	n := s.Mesh.NumTriangles()
	rep := &Report{}
	for _, r := range runs {
		c := r.check
		if !c.Applicable(s) {
			rep.Checks = append(rep.Checks, CheckStat{Name: c.Name(), Skipped: true})
			continue
		}
		if a := s.started(c.Name()); a != nil {
			select {
			case <-a.done:
			case <-ctx.Done():
				return nil, context.Cause(ctx)
			}
			if a.err != nil {
				return nil, a.err
			}
			r = &a.run
		}
		st := CheckStat{Name: c.Name(), Elements: n}
		recorded := 0
		for _, res := range r.results {
			st.Wall += res.wall
			st.Allocs += res.allocs
			st.Violations += res.count
			keep := min(len(res.violations), maxRecorded-recorded)
			rep.Violations = append(rep.Violations, res.violations[:keep]...)
			recorded += keep
		}
		rep.Checks = append(rep.Checks, st)
	}
	return rep, nil
}

// checkRun is one check's execution: its parts and its jobs' results in
// fold order.
type checkRun struct {
	check   Check
	parts   Parts
	results []jobResult
}

// job is one unit of an execution; its result lands in out.
type job struct {
	check string
	run   func(rep *Reporter)
	out   *jobResult
}

// execute runs the checks on up to workers goroutines in two rounds:
// every check's Begin, then every check's parts in chunks of jobChunk of
// its elements. The tails follow on the calling goroutine, in check order.
// A job that panics cancels the rest, and execute returns the context's
// cause. s.Mesh may be nil when every check is a LayerCheck.
func execute(ctx context.Context, s *Snapshot, runs []*checkRun, workers int) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	jobs := make([]job, len(runs))
	for i, r := range runs {
		r.results = make([]jobResult, 1)
		jobs[i] = job{r.check.Name(), func(rep *Reporter) { r.parts = r.check.Begin(s, rep) }, &r.results[0]}
	}
	runJobs(ctx, cancel, jobs, workers)
	if err := context.Cause(ctx); err != nil {
		return err
	}

	jobs = jobs[:0]
	for _, r := range runs {
		ranges := chunks(r.parts.Size(), jobChunk)
		r.results = append(r.results, make([]jobResult, len(ranges)+1)...) // the parts, the tail
		for k, rg := range ranges {
			jobs = append(jobs, job{r.check.Name(), func(rep *Reporter) { r.parts.Part(rg[0], rg[1], rep) }, &r.results[1+k]})
		}
	}
	runJobs(ctx, cancel, jobs, workers)
	for _, r := range runs {
		if ctx.Err() == nil {
			r.results[len(r.results)-1] = runJob(job{check: r.check.Name(), run: r.parts.Tail}, cancel)
		}
	}
	return context.Cause(ctx)
}

// runJobs runs the jobs on up to workers goroutines, handing them out in
// order until they run out or ctx is done.
func runJobs(ctx context.Context, cancel context.CancelCauseFunc, jobs []job, workers int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				*jobs[i].out = runJob(jobs[i], cancel)
			}
		}()
	}
	wg.Wait()
}

// jobResult is one job's findings and measurements.
type jobResult struct {
	wall       time.Duration
	allocs     uint64
	count      int
	violations []Violation
}

// runJob runs one job; a panic cancels the audit with a *checkPanic.
func runJob(j job, cancel context.CancelCauseFunc) jobResult {
	defer func() {
		if p := recover(); p != nil {
			cancel(&checkPanic{check: j.check, value: p})
		}
	}()
	rep := NewReporter(j.check)
	t0 := time.Now()
	a0 := trace.Mallocs()
	j.run(rep)
	return jobResult{
		wall:       time.Since(t0),
		allocs:     trace.Mallocs() - a0,
		count:      rep.Count(),
		violations: rep.Violations(),
	}
}

// checkPanic is a check that panicked, recovered on the goroutine that ran
// it.
type checkPanic struct {
	check string
	value any
}

func (e *checkPanic) Error() string {
	return fmt.Sprintf("audit: check %s panicked: %v", e.check, e.value)
}

// ahead is a check Start began: its execution, and the goroutine's
// outcome once done is closed.
type ahead struct {
	run    checkRun
	err    error
	cancel context.CancelCauseFunc
	done   chan struct{}
}

// errStopped is the cause Stop cancels a started check with.
var errStopped = errors.New("audit: stopped before the audit collected it")

// Start begins the checks of checks that are LayerChecks, each on a
// goroutine of its own running it as RunContext would, and returns
// without waiting: s needs its Layers and BL, no mesh yet, and they must
// not change from here on. A later Run or RunContext on s collects a
// started check's findings in its place instead of running it again, so
// the report is the one it would have been. A started check stops when ctx
// is done; tr, when non-nil, records a trace.CatAudit span on the root
// track for each. Every Start must be followed by a Stop.
func (s *Snapshot) Start(ctx context.Context, checks []Check, tr *trace.Tracer) {
	early := &Snapshot{Layers: s.Layers, BL: s.BL}
	for _, c := range checks {
		if _, ok := c.(LayerCheck); !ok || !c.Applicable(early) || s.started(c.Name()) != nil {
			continue
		}
		ctx, cancel := context.WithCancelCause(ctx)
		a := &ahead{run: checkRun{check: c}, cancel: cancel, done: make(chan struct{})}
		s.ahead = append(s.ahead, a)
		sp := tr.Begin(trace.RootRank, trace.CatAudit, c.Name())
		go func() {
			defer close(a.done)
			a.err = execute(ctx, early, []*checkRun{&a.run}, 1)
			sp.End()
		}()
	}
}

// started is the check named name that Start began, or nil.
func (s *Snapshot) started(name string) *ahead {
	for _, a := range s.ahead {
		if a.run.check.Name() == name {
			return a
		}
	}
	return nil
}

// Stop cancels the checks Start began that are still running and waits
// for their goroutines to return. After a RunContext that collected them
// it only releases their contexts.
func (s *Snapshot) Stop() {
	for _, a := range s.ahead {
		a.cancel(errStopped)
		<-a.done
	}
}
