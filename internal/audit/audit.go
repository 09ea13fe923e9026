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
	order    []int32        // point indices sorted by (X, Y, index)
	first    []int32        // lowest index of each point's coordinates
	paths    []uint64       // pairKey of each path edge's endpoints, sorted
}

// Prepare builds the lookups every check reads. It is idempotent and must
// complete before checks run concurrently.
func (s *Snapshot) Prepare() {
	if s.prepared {
		return
	}
	pts := s.Mesh.Points
	s.edges = s.Mesh.HalfEdges()
	s.order = make([]int32, len(pts))
	for i := range s.order {
		s.order[i] = int32(i)
	}
	slices.SortFunc(s.order, func(a, b int32) int {
		return cmp.Or(comparePoints(pts[a], pts[b]), cmp.Compare(a, b))
	})
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
	s.prepared = true
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
// skipped.
func PlanJobs(s *Snapshot, checks []Check, chunk int) (jobs []Job, skipped []Check) {
	if chunk < 1 {
		chunk = 1
	}
	n := s.Mesh.NumTriangles()
	for _, c := range checks {
		if !c.Applicable(s) {
			skipped = append(skipped, c)
			continue
		}
		if !c.Local() || n <= chunk {
			jobs = append(jobs, Job{Check: c, From: 0, To: n})
			continue
		}
		for from := 0; from < n; from += chunk {
			to := from + chunk
			if to > n {
				to = n
			}
			jobs = append(jobs, Job{Check: c, From: from, To: to})
		}
	}
	return jobs, skipped
}

// jobChunk is the element range of one local-check job: a few hundred
// microseconds of work, so the bench's meshes give every goroutine dozens
// of jobs while the per-job bookkeeping stays negligible.
const jobChunk = 2048

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
// report. It runs PlanJobs' jobs on up to GOMAXPROCS goroutines and folds
// them in plan order, so the report is the sequential loop's: exact
// per-check counts and, per check, the first violations in element order.
// Cancelling ctx stops handing out jobs, and RunContext then returns the
// context's cause; a check that panics stops the audit the same way and
// comes back as an error naming the check.
func RunContext(ctx context.Context, s *Snapshot, checks []Check) (*Report, error) {
	s.Prepare()
	jobs, _ := PlanJobs(s, checks, jobChunk)
	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(jobs)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				results[i] = runJob(s, jobs[i], cancel)
			}
		}()
	}
	wg.Wait()
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}

	// The applicable checks' jobs tile [0, n) each, in check order.
	n := s.Mesh.NumTriangles()
	rep := &Report{}
	ji := 0
	for _, c := range checks {
		if !c.Applicable(s) {
			rep.Checks = append(rep.Checks, CheckStat{Name: c.Name(), Skipped: true})
			continue
		}
		st := CheckStat{Name: c.Name(), Elements: n}
		recorded := 0
		for done := false; !done; ji++ {
			r := &results[ji]
			st.Wall += r.wall
			st.Allocs += r.allocs
			st.Violations += r.count
			keep := min(len(r.violations), maxRecorded-recorded)
			rep.Violations = append(rep.Violations, r.violations[:keep]...)
			recorded += keep
			done = jobs[ji].To == n
		}
		rep.Checks = append(rep.Checks, st)
	}
	return rep, nil
}

// jobResult is one job's findings and measurements.
type jobResult struct {
	wall       time.Duration
	allocs     uint64
	count      int
	violations []Violation
}

// runJob runs one job; a panic cancels the audit with a *checkPanic.
func runJob(s *Snapshot, j Job, cancel context.CancelCauseFunc) jobResult {
	defer func() {
		if p := recover(); p != nil {
			cancel(&checkPanic{check: j.Check.Name(), value: p})
		}
	}()
	rep := NewReporter(j.Check.Name())
	t0 := time.Now()
	a0 := trace.Mallocs()
	j.Check.Run(s, j.From, j.To, rep)
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
