package core

// The stage-graph engine. The pipeline's phases are first-class Stage
// values executed in sequence by runStages, which owns all per-stage
// instrumentation (wall time, heap allocation delta, wire traffic) through
// the single recordStage hook — stages themselves contain no bookkeeping.
// A context.Context threads through every stage; cancellation between or
// during stages surfaces as a *PhaseError naming the interrupted stage,
// and a worker-rank failure inside a distributed stage is attributed to
// its rank. This is the seam future work plugs into: async/overlapped
// stages and alternative transports slot in as Stage implementations
// without touching Generate.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"pamg2d/internal/blayer"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/pslg"
	"pamg2d/internal/sizing"
	"pamg2d/internal/trace"
)

// Stage names, in pipeline order. They key the StageStat records and the
// Stage/PhaseError attribution.
const (
	StageValidate        = "validate"
	StageRays            = "boundary-rays"
	StageRayInsertion    = "ray-insertion"
	StageBLTriangulation = "bl-triangulation"
	StageInviscid        = "inviscid"
	StageMerge           = "merge"
	// StageAudit is the seventh stage, run under Config.Audit and on every
	// degraded run: post-merge invariant verification over the
	// internal/audit check registry. Its per-check measurements are
	// recorded as additional "audit/<check>" StageStat entries ahead of the
	// engine's own "audit" summary entry.
	StageAudit = "audit"
)

// Stage is one pipeline phase: a named unit of work over the shared run
// state. Stages are stateless values; all mutable state lives in the
// RunCtx, so the same stage list serves every Generate call.
type Stage interface {
	Name() string
	Run(rc *RunCtx) error
}

// conditionalStage is a stage that decides, when runStages reaches it,
// whether it runs at all; a skipped stage records nothing.
type conditionalStage interface {
	skip(rc *RunCtx) bool
}

// StageStat is one stage's execution record, written by the engine's stats
// hook: wall time, heap allocation delta, and the messages/bytes its
// distributed execution put on the (simulated) wire.
//
// Wire-attribution convention: a stage's Messages/BytesOnWire are carried
// by its summary entry alone — the entry whose Name is the plain stage
// name. Sub-entries, whose Name contains a '/' (the audit stage's
// per-check "audit/<check>" records), report Wall and Allocs only and
// always leave the wire counters zero. Summing Messages over Stats.Stages
// therefore equals Stats.Messages exactly, with or without sub-entries
// present. On rank 0 of a multi-process run the counters are the whole
// fabric's: its own sends plus each worker's, reported on the worker's
// agreement leg (counted at its payload size); a worker's are its own.
type StageStat struct {
	Name        string
	Wall        time.Duration
	Allocs      uint64
	Messages    int64
	BytesOnWire int64
	// Ranks is the per-rank execution summary of a distributed stage,
	// folded from the balancer's counters; nil for root-side stages and
	// sub-entries. Index order is rank order.
	Ranks []RankStat
}

// RankStat summarizes one rank's part in a distributed stage: how many
// tasks it executed, how long it computed (Busy) versus waited for work
// (Idle), and its share of the steal traffic. Busy is summed task
// execution time, so max(Busy) across ranks approximates the stage's
// critical path and mean/max Busy is the load-balance ratio. Rank 0's
// Stats holds every rank's; a worker's holds its own and zeros.
type RankStat struct {
	Rank          int
	Tasks         int
	Busy          time.Duration
	Idle          time.Duration
	StealRequests int
	StealsGranted int
	StealsGotten  int
}

// RankWall returns the min/max/mean per-rank busy wall of a distributed
// stage's Ranks summary; zeros when the stage recorded no rank data.
func (s *StageStat) RankWall() (min, max, mean time.Duration) {
	if len(s.Ranks) == 0 {
		return 0, 0, 0
	}
	var sum time.Duration
	min = s.Ranks[0].Busy
	for _, r := range s.Ranks {
		if r.Busy < min {
			min = r.Busy
		}
		if r.Busy > max {
			max = r.Busy
		}
		sum += r.Busy
	}
	return min, max, sum / time.Duration(len(s.Ranks))
}

// PhaseError attributes a pipeline failure to the stage it occurred in
// and, for failures inside a distributed phase, the rank it occurred on
// (Rank is -1 when the failure is not rank-attributable, e.g. root-side
// preparation or cancellation). It wraps the underlying cause, so
// errors.Is(err, context.Canceled) and friends see through it.
type PhaseError struct {
	Stage string
	Rank  int
	Err   error
}

func (e *PhaseError) Error() string {
	if e.Rank >= 0 {
		return fmt.Sprintf("core: stage %s: rank %d: %v", e.Stage, e.Rank, e.Err)
	}
	return fmt.Sprintf("core: stage %s: %v", e.Stage, e.Err)
}

func (e *PhaseError) Unwrap() error { return e.Err }

// phaseError wraps err with the stage name, pulling the rank out of an
// mpi.RankError when the failure is rank-attributed. An error that is
// already a *PhaseError passes through unchanged.
func phaseError(stage string, err error) *PhaseError {
	var pe *PhaseError
	if errors.As(err, &pe) {
		return pe
	}
	var re *mpi.RankError
	if errors.As(err, &re) {
		return &PhaseError{Stage: stage, Rank: re.Rank, Err: re.Err}
	}
	return &PhaseError{Stage: stage, Rank: -1, Err: err}
}

// RunCtx is the shared state of one pipeline run: the context and config
// in, the stats and result out, and the intermediate products each stage
// leaves for its successors.
type RunCtx struct {
	ctx    context.Context
	cfg    Config
	stats  *Stats
	res    *Result
	tracer *trace.Tracer // nil when tracing is off

	// Intermediate pipeline state, in production order.
	g          *pslg.Graph     // validate
	ffBox      geom.BBox       // validate: far-field frame
	layers     []*blayer.Layer // boundary-rays
	blPoints   []geom.Point    // ray-insertion
	surfaceSet map[geom.Point]bool
	// builder holds the boundary-layer mesh after bl-triangulation; the
	// merge stage adds the isotropic submeshes to the same builder.
	builder    *mesh.Builder
	size       sizing.Func  // bl-triangulation
	sizeSlope  float64      // bl-triangulation: size's delaunay.Quality.SizeSlope
	nbBox      geom.BBox    // bl-triangulation: near-body box
	outerPts   []geom.Point // bl-triangulation: BL outer boundary
	outerSegs  [][2]int32
	isoResults []submesh // inviscid: the transition + inviscid tasks' submeshes
	// inviscid: the transition inputs (after any sector split) and the
	// decoupled regions, whose edges the audit stage checks.
	transInputs []delaunay.Input
	regions     []*decouple.Region

	// kernels holds one Delaunay workspace per rank of the distributed
	// stages' worlds, made by runPhase before the ranks start: every task a
	// rank of this process runs builds in its rank's workspace, so the
	// kernel's stores grow to the run's largest task once.
	kernels []*delaunay.Triangulation

	// Wire counters for the stage in flight, reset by the engine around
	// each stage and folded into the stats by recordStage.
	wireMsgs  int64
	wireBytes int64
	// stageRanks is the per-rank summary of the distributed stage in
	// flight, reset with the wire counters and folded into the StageStat.
	stageRanks []RankStat
}

// Context returns the run's cancellation context.
func (rc *RunCtx) Context() context.Context { return rc.ctx }

// runStages executes the stage list in order. It is the only place in the
// pipeline that measures anything: each stage's wall time, allocation
// delta and wire traffic pass through the recordStage hook, and every
// failure leaves as a *PhaseError naming the stage. The context is checked
// before each stage so cancellation between stages costs nothing.
func (rc *RunCtx) runStages(stages []Stage) error {
	start := time.Now()
	allocStart := trace.Mallocs()
	for _, s := range stages {
		if c, ok := s.(conditionalStage); ok && c.skip(rc) {
			continue
		}
		if rc.ctx.Err() != nil {
			return &PhaseError{Stage: s.Name(), Rank: -1, Err: context.Cause(rc.ctx)}
		}
		t0 := time.Now()
		a0 := trace.Mallocs()
		rc.wireMsgs, rc.wireBytes = 0, 0
		rc.stageRanks = nil
		sp := rc.tracer.Begin(trace.RootRank, trace.CatStage, s.Name())
		err := s.Run(rc)
		sp.End()
		rc.stats.recordStage(StageStat{
			Name:        s.Name(),
			Wall:        time.Since(t0),
			Allocs:      trace.Mallocs() - a0,
			Messages:    rc.wireMsgs,
			BytesOnWire: rc.wireBytes,
			Ranks:       rc.stageRanks,
		})
		if err != nil {
			return phaseError(s.Name(), err)
		}
	}
	rc.stats.Times.Total = time.Since(start)
	rc.stats.Allocs.Total = trace.Mallocs() - allocStart
	return nil
}

// recordStage is the engine's single stats hook: every stage's measurement
// lands here, in the ordered Stages list and the run's wire totals.
func (st *Stats) recordStage(s StageStat) {
	st.Stages = append(st.Stages, s)
	st.Messages += s.Messages
	st.BytesOnWire += s.BytesOnWire
}

// StageWall sums the wall time of the stages with the given names (the
// Stage* constants). Names match whole entries, so StageAudit is the audit
// stage's summary entry and never its "audit/<check>" sub-entries.
func (st *Stats) StageWall(names ...string) time.Duration {
	var d time.Duration
	for _, s := range st.Stages {
		if slices.Contains(names, s.Name) {
			d += s.Wall
		}
	}
	return d
}

// SerialTime is the run's root-side time: over the summary entries of
// Stages, each stage's wall minus its busiest rank's Busy, so a stage
// without rank data counts whole. At one rank it is the run's stage wall
// minus its summed task time; it is the strong-scaling model's sequential
// fraction.
func (st *Stats) SerialTime() time.Duration {
	var d time.Duration
	for _, s := range st.Stages {
		if strings.Contains(s.Name, "/") {
			continue // audit/<check> sub-entries are inside the audit summary
		}
		_, busiest, _ := s.RankWall()
		d += s.Wall - busiest
	}
	return d
}

// stageFunc adapts a plain function to the Stage interface for the
// root-side (non-distributed) phases.
type stageFunc struct {
	name string
	fn   func(*RunCtx) error
}

func (s stageFunc) Name() string         { return s.name }
func (s stageFunc) Run(rc *RunCtx) error { return s.fn(rc) }

// mergeFunc folds the collected per-task submeshes (indexed by task ID)
// into the run state at the root.
type mergeFunc func(results []submesh) error

// prepareFunc builds a distributed stage's task list and shared task
// context and returns the merge that will fold the results. Splitting
// preparation from merging is what lets one executor, runPhase, serve both
// meshing phases.
type prepareFunc func(rc *RunCtx) (tasks []meshTask, tctx taskCtx, merge mergeFunc, err error)

// distStage is a distributed meshing phase: prepare builds the tasks,
// runPhase runs them under the load balancer, merge folds the results
// back into the run state.
type distStage struct {
	name    string
	prepare prepareFunc
}

func (s *distStage) Name() string { return s.name }

func (s *distStage) Run(rc *RunCtx) error {
	// The root-side closures get spans of their own under the stage's, so
	// a trace shows the stage's serial part directly.
	sp := rc.tracer.Begin(trace.RootRank, trace.CatRoot, "root/prepare")
	tasks, tctx, merge, err := s.prepare(rc)
	sp.End()
	if err != nil {
		return err
	}
	results, err := runPhase(rc, s.name, tasks, tctx)
	if err != nil {
		return err
	}
	sp = rc.tracer.Begin(trace.RootRank, trace.CatRoot, "root/merge")
	err = merge(results)
	sp.End()
	return err
}
