// Package core is the push-button parallel anisotropic mesh generator —
// the paper's "application". Given an airfoil configuration and
// boundary-layer parameters it runs the full pipeline without further
// interaction:
//
//  1. build and validate the PSLG;
//  2. generate the anisotropic boundary layer (extrusion along normals,
//     large-angle refinement, cusp fans, self-/multi-element intersection
//     resolution);
//  3. triangulate the boundary-layer points in parallel with the
//     projection-based decomposition, each leaf on some rank, merged by
//     the circumcenter-region rule;
//  4. mesh the transition region between the boundary layer's outer
//     boundary and the near-body box;
//  5. decouple the inviscid annulus into graded Delaunay subdomains and
//     refine them independently on the ranks;
//  6. gather everything at the root and merge into the final mesh.
//
// Steps 3 and 5 run under the work-stealing load balancer on the
// simulated MPI runtime; all task processing is timed so the
// strong-scaling performance model can be calibrated from real kernel
// costs.
package core

import (
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/audit"
	"pamg2d/internal/blayer"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/pslg"
	"pamg2d/internal/trace"
)

// Config is the push-button input: geometry plus boundary-layer
// parameters, as the paper's conclusion describes.
type Config struct {
	// Geometry is the airfoil configuration (elements + far field).
	Geometry airfoil.Config
	// CustomGraph, when non-nil, overrides Geometry with an arbitrary
	// validated PSLG (for example one read from a .poly file). It must
	// contain a far-field loop.
	CustomGraph *pslg.Graph
	// BL are the boundary-layer extrusion parameters.
	BL blayer.Params
	// SurfaceH0 is the target isotropic edge length at the body surface
	// (drives the graded sizing function).
	SurfaceH0 float64
	// Gradation is the sizing growth rate with distance from the body.
	Gradation float64
	// HMax caps the far-field edge length.
	HMax float64
	// Ranks is the number of MPI ranks. With the default in-process
	// fabric they are simulated by goroutines; with a Fabric attached the
	// count must match (or be left zero to adopt) the fabric's size.
	Ranks int
	// Fabric, when non-nil, supplies the rank communication transport the
	// distributed stages run over — typically one process per rank joined
	// over TCP (mpi.AcceptTCP / mpi.JoinTCP). Every process of the fabric
	// must call Generate with an identical configuration: the pipeline is
	// SPMD, running the sequential stages redundantly on each process and
	// splitting only the distributed phases, whose collected results the
	// root re-broadcasts so all processes merge the same mesh. Rank 0's
	// Stats is the run's record; a worker's holds every task's measure but
	// only its own rank's counters. Nil selects the in-process fabric
	// (goroutine ranks, zero-copy transfers).
	Fabric *mpi.Cluster
	// SubdomainsPerRank sets the decoupling target (the paper
	// over-decomposes for load balancing); default 4.
	SubdomainsPerRank int
	// NearBodyMargin inflates the boundary-layer bounding box to form the
	// near-body box, in multiples of the box diagonal; default 0.25.
	NearBodyMargin float64
	// TransitionSectors splits the transition annulus into this many
	// angular sectors so the near-body region parallelizes too (0 = auto
	// from the rank and subdomain counts; 1 = single task). Sector
	// decomposition silently falls back to a single task when the
	// boundary-layer outer boundary is not a single simple loop.
	TransitionSectors int
	// Tracer, when non-nil, records the run for offline inspection: every
	// stage, per-rank task execution, steal transfer, and MPI send
	// becomes a rank-attributed span or event, exportable as a
	// Chrome trace-event file (trace.Tracer.WriteTrace) with a companion
	// run-metrics registry (Tracer.Metrics). The default nil tracer is
	// free in the hot paths beyond a single nil check per instrumentation
	// site — bench/'s allocs_k rows, which CI gates, run with it nil.
	Tracer *trace.Tracer
	// Audit enables the post-merge invariant-verification stage: the
	// merged mesh is audited against the internal/audit check registry
	// (exact-predicate Delaunay, topology, boundary-layer and decoupling
	// invariants) by every process on its own copy. Violations fail the
	// run with a *PhaseError for the "audit" stage wrapping an
	// *audit.Error; the full report lands in Stats.Audit either way. A
	// degraded run (one whose fabric lost a rank) is audited whether or
	// not Audit is set.
	Audit bool
	// RunID labels the run in logs, stats, and trace metadata. Callers
	// with a natural correlation key (meshd stamps its request ID here)
	// set it; when empty, an engine with observability enabled (a logger
	// or a per-run tracer) assigns a sequential "run-NNNNNN". With
	// neither, the run stays unlabeled — no formatting on the hot path,
	// keeping disabled telemetry allocation-neutral.
	RunID string
	// TaskHook, when set, runs at the start of every distributed task's
	// execution with the stage name and task kind; a non-nil return fails
	// the task on the rank executing it. It exists for test and
	// fault-injection harnesses: the stage engine tests use it to cancel
	// or fail mid-phase deterministically, and meshgen's -fault-kill-*
	// flags use it to SIGKILL a worker at an exact point in the task
	// stream when rehearsing rank-death recovery. Leave nil in production
	// runs.
	TaskHook func(stage string, kind int) error
	// testMutateMesh, when set (tests only), runs on the merged mesh
	// before the audit stage inspects it; the failure-path tests corrupt
	// the mesh here to prove violations surface as stage errors.
	testMutateMesh func(*mesh.Mesh)
}

// The defaults a zero SubdomainsPerRank or NearBodyMargin reads as.
const defaultSubdomainsPerRank, defaultNearBodyMargin = 4, 0.25

// DefaultConfig returns a working configuration for a NACA 0012 at the
// given surface resolution.
func DefaultConfig() Config {
	return Config{
		Geometry:          airfoil.Single(airfoil.NACA0012, 64, 30),
		BL:                blayer.DefaultParams(),
		SurfaceH0:         0.02,
		Gradation:         0.15,
		HMax:              4.0,
		Ranks:             4,
		SubdomainsPerRank: defaultSubdomainsPerRank,
		NearBodyMargin:    defaultNearBodyMargin,
	}
}

// PhaseTimes records the wall time of the whole stage list. The per-stage
// walls are Stats.Stages[i].Wall; Stats.StageWall sums them by name.
type PhaseTimes struct {
	Total time.Duration
}

// PhaseAllocs records the run's heap allocation count, measured as the
// runtime.MemStats.Mallocs delta across the whole stage list. The per-stage
// deltas are Stats.Stages[i].Allocs.
type PhaseAllocs struct {
	Total uint64
}

// StealStats aggregates the work-stealing balancer's per-rank counters
// over the whole run (all distributed stages). It is the
// load-balancer behavior of the paper's Figures 9–11 in summary form:
// Gotten/Requests is the steal success rate, and Idle against the stage
// walls is the rank-skew signal.
type StealStats struct {
	// Requests counts steal requests issued by underloaded ranks.
	Requests int
	// Granted counts requests satisfied by a victim handing over a task.
	Granted int
	// Gotten counts tasks that arrived on a thief; on rank 0 it equals
	// Granted for a run that lost no rank.
	Gotten int
	// Idle is the summed time mesher goroutines spent waiting for work.
	Idle time.Duration
}

// TaskMeasure is one task's measured execution, the calibration input of
// the strong-scaling model. The executing rank times the task and the
// seconds ride its result to the root, so every process holds every
// task's measure.
type TaskMeasure struct {
	Seconds       float64
	Bytes         int64
	BoundaryLayer bool
	Triangles     int
}

// Stats summarizes a pipeline run. On a multi-process fabric rank 0's is
// the whole run's record: every worker's counters reach it on the
// agreement that ends each distributed stage. A worker's Stats holds every
// task's measure but only its own rank's counters.
type Stats struct {
	// RunID is the run's correlation label: Config.RunID when the caller
	// set one, the engine-assigned sequential ID when observability is
	// on, empty otherwise.
	RunID            string
	SurfacePoints    int
	BoundaryLayerPts int
	BLTriangles      int
	TransitionTris   int
	InviscidTris     int
	TotalTriangles   int
	BLLayerStats     []blayer.Stats
	// Tasks is every distributed task's measure, in stage and task order.
	Tasks []TaskMeasure
	// Steals is the run-wide fold of the balancer counters across every
	// distributed stage: how often ranks asked for work, how many tasks
	// changed hands, and the total time meshers spent waiting for work.
	Steals StealStats
	// Stages is the ordered per-stage record written by the engine's
	// stats hook; a distributed stage's entry carries the balancer's
	// per-rank counters (Ranks), so the balancer's behavior is reachable
	// from Result without a tracer attached.
	Stages      []StageStat
	Times       PhaseTimes
	Allocs      PhaseAllocs
	Messages    int64
	BytesOnWire int64
	// Audit is the invariant-verification report of the audit stage (nil
	// when it did not run: Config.Audit off and no rank lost). It is
	// populated even when the audit fails the run.
	Audit *audit.Report
	// Resilience records how the run degraded when ranks died mid-flight;
	// all-zero for clean runs. A run on a fabric that already lost ranks
	// (a long-lived engine surviving an earlier failure) reports those
	// losses too: it genuinely ran on the shrunken rank set.
	Resilience ResilienceStats
}

// ResilienceStats summarizes a run's fault-tolerance activity: ranks lost,
// tasks re-queued onto survivors by the balancer's recovery path, and the
// wall time the distributed phases spent between noticing a death and
// terminating degraded.
type ResilienceStats struct {
	RanksLost     int
	TasksRequeued int
	RecoveryWall  time.Duration
	// Deaths is the fabric's chronological death record as seen from this
	// process: which rank, when it was declared dead, and why.
	Deaths []RankDeathStat
}

// RankDeathStat is one rank death: detection time and cause as recorded by
// the transport's membership view.
type RankDeathStat struct {
	Rank  int
	At    time.Time
	Cause string
}

// Degraded reports whether the run lost ranks: it completed, and its audit
// (which a degraded run always gets) passed, but on fewer ranks than
// configured. Degraded runs
// are not guaranteed byte-identical to the full-rank run — the invariant
// audit is the correctness gate.
func (st *Stats) Degraded() bool { return st.Resilience.RanksLost > 0 }
