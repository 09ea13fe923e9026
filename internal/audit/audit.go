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
// check is about coordinates. Run and RunContext are the one executor:
// element-local checks audit index subranges independently, so PlanJobs
// chunks them, every job runs on a pool of goroutines in this process, and
// the findings fold in plan order — the report is the sequential loop's,
// whatever the scheduling. The pipeline's audit stage, cmd/meshcheck,
// adaptation and bench/ all call it; the mesh it audits is one every
// process already holds, so it needs no fabric.
package audit

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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
// delta, elements covered, and how many violations it found. For chunked
// checks the wall time is the sum over all chunks (CPU time, which can
// exceed the audit's wall clock) and the allocation count is a best-effort
// sum measured per chunk on a process-wide heap counter, so concurrent
// jobs bleed into each other's numbers.
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

// Check is one pluggable mesh invariant verification.
type Check interface {
	// Name identifies the check in reports and CLI selection.
	Name() string
	// Applicable reports whether the snapshot carries the inputs the check
	// needs (e.g. boundary-layer checks need the generation-time layers).
	Applicable(s *Snapshot) bool
	// Local reports whether Run may be called on element subranges
	// independently; global checks are always run as [0, NumTriangles).
	Local() bool
	// Run audits elements [from, to) of the snapshot's mesh for local
	// checks; global checks ignore the range and audit everything.
	Run(s *Snapshot, from, to int, rep *Reporter)
}

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
	s.order = pointOrder(pts)
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

// pointOrder returns the point indices sorted by (X, Y, index), the order
// comparePoints and then the index give, without a comparison that reaches
// back into pts: records of each point's coordinates as order-preserving
// integer keys and its index go through a stable radix sort on the X key,
// 11 bits a pass, which leaves each run of one X in index order, and a
// run of more than one point is sorted by its Y keys.
func pointOrder(pts []geom.Point) []int32 {
	type record struct {
		x, y uint64
		i    int32
	}
	const bits, digits = 11, 6 // 66 bits cover the key
	n := len(pts)
	recs, spare := make([]record, n), make([]record, n)
	var counts [digits][1 << bits]int32
	for i, p := range pts {
		r := record{orderKey(p.X), orderKey(p.Y), int32(i)}
		recs[i] = r
		for d := range counts {
			counts[d][r.x>>(bits*d)&(1<<bits-1)]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if n == 0 || c[recs[0].x>>(bits*d)&(1<<bits-1)] == int32(n) {
			continue // one digit throughout: the pass would keep the order
		}
		sum := int32(0)
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, r := range recs {
			b := r.x >> (bits * d) & (1<<bits - 1)
			spare[c[b]] = r
			c[b]++
		}
		recs, spare = spare, recs
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && recs[hi].x == recs[lo].x {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(recs[lo:hi], func(a, b record) int { return cmp.Compare(a.y, b.y) })
		}
		lo = hi
	}
	order := make([]int32, n)
	for k, r := range recs {
		order[k] = r.i
	}
	return order
}

// orderKey maps a float64 to a uint64 that sorts as cmp.Compare sorts the
// floats: every NaN first and equal to each other, then -Inf up to +Inf,
// with -0 equal to +0.
func orderKey(v float64) uint64 {
	switch {
	case v != v:
		return 0
	case v == 0:
		v = 0 // -0 takes +0's key
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

func comparePoints(p, q geom.Point) int {
	return cmp.Or(cmp.Compare(p.X, q.X), cmp.Compare(p.Y, q.Y))
}

// pairKey is an undirected index pair as one sortable key.
func pairKey(a, b int32) uint64 {
	return uint64(uint32(min(a, b)))<<32 | uint64(uint32(max(a, b)))
}

// at returns the indices of the points at p, ascending: none when p is not
// a mesh point (a coordinate with a NaN never is, as it equals nothing).
func (s *Snapshot) at(p geom.Point) []int32 {
	pts := s.Mesh.Points
	lo, _ := slices.BinarySearchFunc(s.order, p, func(i int32, p geom.Point) int { return comparePoints(pts[i], p) })
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

// Job is one schedulable audit unit: a check over an element range (the
// whole mesh for global checks).
type Job struct {
	Check    Check
	From, To int
}

// PlanJobs splits the applicable checks into jobs: local checks are chunked
// into ranges of at most chunk elements, global checks become one job each.
// Inapplicable checks are returned separately so reports can list them as
// skipped. With no mesh yet (a snapshot holding only layers) every range is
// empty. RunContext runs every check that is not split in these jobs.
func PlanJobs(s *Snapshot, checks []Check, chunk int) (jobs []Job, skipped []Check) {
	n := 0
	if s.Mesh != nil {
		n = s.Mesh.NumTriangles()
	}
	for _, c := range checks {
		if !c.Applicable(s) {
			skipped = append(skipped, c)
			continue
		}
		if !c.Local() {
			jobs = append(jobs, Job{Check: c, From: 0, To: n})
			continue
		}
		for _, rg := range chunks(n, max(chunk, 1)) {
			jobs = append(jobs, Job{Check: c, From: rg[0], To: rg[1]})
		}
	}
	return jobs, skipped
}

// jobChunk is the element range of one local-check job: a few hundred
// microseconds of work, so the bench's meshes give every goroutine dozens
// of jobs while the per-job bookkeeping stays negligible.
const jobChunk = 2048

// chunks splits [0, n) into ranges of at most chunk elements, in order;
// [0, n) itself when n <= chunk, so even an empty range is one job.
func chunks(n, chunk int) [][2]int {
	if n <= chunk {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+chunk-1)/chunk)
	for from := 0; from < n; from += chunk {
		out = append(out, [2]int{from, min(from+chunk, n)})
	}
	return out
}

// A splitCheck is a global check whose work is mostly element-local, so
// that no single job bounds the audit. begin runs once and returns the
// state its parts share; the parts audit ranges of that state's own
// elements independently, as a Local check's Run audits triangle ranges;
// the tail runs once every part is done and audits what needs them all.
// The findings list as begin's, then the parts' in element order, then
// the tail's: the order of Run's single pass, runSplit.
type splitCheck interface {
	Check
	begin(s *Snapshot, rep *Reporter) splitter
}

// splitter is one execution of a split check.
type splitter interface {
	size() int                        // the elements the parts cover
	part(from, to int, rep *Reporter) // audit elements [from, to)
	tail(rep *Reporter)
}

// runSplit is a split check's Run: begin, one part over every element,
// the tail.
func runSplit(c splitCheck, s *Snapshot, rep *Reporter) {
	sp := c.begin(s, rep)
	sp.part(0, sp.size(), rep)
	sp.tail(rep)
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
// report. Local checks run in PlanJobs' chunks, split checks as their
// begin, parts and tail (execute), all on up to GOMAXPROCS goroutines, and
// the findings fold in check order and, within a check, in job order, so
// the report is the sequential loop's: exact per-check counts and, per
// check, the first violations in element order. A check Start began on s
// is not run again: its findings are collected in its place. Cancelling
// ctx stops handing out jobs, and RunContext then returns the context's
// cause; a check that panics stops the audit the same way and comes back
// as an error naming the check.
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

// checkRun is one check's execution: its jobs' results in fold order and,
// for a split check, the state its parts share.
type checkRun struct {
	check   Check
	split   splitter
	results []jobResult
}

// job is one unit of an execution; its result lands in out.
type job struct {
	check string
	run   func(rep *Reporter)
	out   *jobResult
}

// execute runs the checks on up to workers goroutines in two rounds: the
// split checks' begins and every other check's jobs, as PlanJobs plans
// them, then the split checks' parts in chunks of jobChunk of their
// elements. The tails follow on the calling goroutine, in check order. A
// job that panics cancels the rest, and execute returns the context's
// cause. s.Mesh may be nil when every check is a LayerCheck.
func execute(ctx context.Context, s *Snapshot, runs []*checkRun, workers int) error {
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	var jobs []job
	for _, r := range runs {
		if sc, ok := r.check.(splitCheck); ok {
			r.results = make([]jobResult, 1)
			jobs = append(jobs, job{sc.Name(), func(rep *Reporter) { r.split = sc.begin(s, rep) }, &r.results[0]})
		}
	}
	for _, r := range runs {
		if _, ok := r.check.(splitCheck); ok {
			continue
		}
		planned, _ := PlanJobs(s, []Check{r.check}, jobChunk)
		r.results = make([]jobResult, len(planned))
		for k, j := range planned {
			jobs = append(jobs, job{j.Check.Name(), func(rep *Reporter) { j.Check.Run(s, j.From, j.To, rep) }, &r.results[k]})
		}
	}
	runJobs(ctx, cancel, jobs, workers)
	if err := context.Cause(ctx); err != nil {
		return err
	}

	jobs = jobs[:0]
	for _, r := range runs {
		if r.split == nil {
			continue
		}
		ranges := chunks(r.split.size(), jobChunk)
		r.results = append(r.results, make([]jobResult, len(ranges)+1)...) // the parts, the tail
		for k, rg := range ranges {
			jobs = append(jobs, job{r.check.Name(), func(rep *Reporter) { r.split.part(rg[0], rg[1], rep) }, &r.results[1+k]})
		}
	}
	runJobs(ctx, cancel, jobs, workers)
	for _, r := range runs {
		if r.split != nil && ctx.Err() == nil {
			r.results[len(r.results)-1] = runJob(job{check: r.check.Name(), run: r.split.tail}, cancel)
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
