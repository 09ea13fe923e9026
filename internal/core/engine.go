package core

// The engine/run split. An Engine is the long-lived half of the mesh
// generator: it owns the rank fabric (the mpi.Cluster and, through it, the
// persistent worlds and pooled wire buffers) and an engine-lifetime
// metrics registry. A Run is the per-request half: one Config executed
// under one context.Context with its own Stats and (optional) Tracer,
// borrowing the engine's resources and returning them clean. Many runs may be in flight on one engine at once —
// that is the seam cmd/meshd serves traffic through — with admission
// control bounding how many execute concurrently and how many may queue.
//
// Generate and GenerateContext are thin wrappers over a throwaway engine,
// so every pre-split caller keeps its one-run-owns-the-process view while
// the engine is the real execution path underneath.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

var (
	// ErrEngineBusy reports a run rejected by admission control: the
	// engine is executing MaxConcurrent runs and the wait queue is full.
	ErrEngineBusy = errors.New("core: engine at capacity")
	// ErrEngineClosed reports a run submitted after Close.
	ErrEngineClosed = errors.New("core: engine closed")
)

// EngineConfig sizes a long-lived engine. The zero value is a usable
// single-rank, unlimited-admission engine.
type EngineConfig struct {
	// Ranks is the engine's rank count. With a Fabric attached it must
	// match (or be left zero to adopt) the fabric's size; otherwise ranks
	// are in-process goroutines and any count >= 1 works (zero resolves
	// to 1).
	Ranks int
	// Fabric, when non-nil, is the rank transport the engine's runs
	// execute over; the engine does not close it. Nil builds a private
	// in-process cluster. Multi-process fabrics serialize runs — the SPMD
	// world-epoch pairing requires every process to mint worlds in the
	// same order, which concurrent runs would interleave.
	Fabric *mpi.Cluster
	// MaxConcurrent bounds the runs executing at once; 0 means unlimited
	// (every submitted run executes immediately).
	MaxConcurrent int
	// MaxQueue bounds the runs waiting for an execution slot when
	// MaxConcurrent is saturated: beyond it, Run fails fast with
	// ErrEngineBusy. 0 means an unbounded queue; negative means no queue
	// (reject as soon as MaxConcurrent runs are active). Ignored when
	// MaxConcurrent is 0.
	MaxQueue int
	// Logger, when non-nil, receives a structured record per run
	// lifecycle event (started / completed / failed) with the run ID,
	// rank count, and outcome attached. Nil disables engine logging
	// entirely — not a single slog call is made, keeping the disabled
	// path allocation-free.
	Logger *slog.Logger
}

// Engine is the persistent mesh-generation service core: one fabric, one
// metrics registry, any number of runs. Create with NewEngine, execute
// with Run, release with Close.
type Engine struct {
	ranks     int
	fabric    *mpi.Cluster
	ownFabric bool
	multiProc bool
	maxQueue  int

	metrics *trace.Metrics
	logger  *slog.Logger
	runSeq  atomic.Uint64 // sequential run IDs, assigned only when observed

	sem     chan struct{} // admission slots; nil = unlimited
	waiting atomic.Int64  // runs queued on sem
	active  atomic.Int64  // runs past admission, not yet released
	runs    sync.WaitGroup
	serial  sync.Mutex // multi-process fabrics: one run at a time

	closed atomic.Bool
}

// NewEngine builds an engine. The error mirrors GenerateContext's
// rank/fabric validation so wrapper callers see identical failures.
func NewEngine(ec EngineConfig) (*Engine, error) {
	e := &Engine{ranks: ec.Ranks, maxQueue: ec.MaxQueue, logger: ec.Logger}
	if ec.Fabric != nil {
		if e.ranks < 1 {
			e.ranks = ec.Fabric.Size()
		} else if e.ranks != ec.Fabric.Size() {
			return nil, fmt.Errorf("core: config asks for %d ranks but the fabric has %d", e.ranks, ec.Fabric.Size())
		}
		e.fabric = ec.Fabric
		e.multiProc = ec.Fabric.TransportName() != "inproc"
	} else {
		if e.ranks < 1 {
			e.ranks = 1
		}
		e.fabric = mpi.InProcess(e.ranks)
		e.ownFabric = true
	}
	if ec.MaxConcurrent > 0 {
		e.sem = make(chan struct{}, ec.MaxConcurrent)
	}
	e.metrics = trace.NewMetrics()
	return e, nil
}

// Ranks returns the engine's rank count; runs must match it (or leave
// Config.Ranks zero to adopt it).
func (e *Engine) Ranks() int { return e.ranks }

// Metrics returns the engine-lifetime registry: run totals, failure
// counts, and wall-time histograms accumulate here across every run, and
// servers built on the engine (cmd/meshd) fold their own counters in. It
// is distinct from any per-run Tracer registry, which records one run.
func (e *Engine) Metrics() *trace.Metrics { return e.metrics }

// Active returns the number of runs past admission and still executing.
func (e *Engine) Active() int { return int(e.active.Load()) }

// admit reserves an execution slot, waiting in the bounded queue when the
// engine is saturated. It fails fast with ErrEngineBusy when the queue is
// full, and returns the context's cause if the caller gives up waiting.
func (e *Engine) admit(ctx context.Context) error {
	if e.closed.Load() {
		return ErrEngineClosed
	}
	if e.sem == nil {
		return nil
	}
	select {
	case e.sem <- struct{}{}:
		return nil
	default:
	}
	if e.maxQueue < 0 {
		return ErrEngineBusy
	}
	if e.maxQueue > 0 && e.waiting.Add(1) > int64(e.maxQueue) {
		e.waiting.Add(-1)
		return ErrEngineBusy
	} else if e.maxQueue > 0 {
		defer e.waiting.Add(-1)
	}
	e.metrics.Count("engine.queued", 1)
	select {
	case e.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Run executes one pipeline over the engine's fabric. cfg carries the
// per-request half of the state — geometry, sizing, per-run Stats and
// Tracer — and must either leave Ranks/Fabric zero to adopt the engine's
// or match them exactly. Concurrent Run calls are safe and, on an
// in-process fabric, execute in parallel (bounded by MaxConcurrent); each
// returns its own Result with fully independent Stats. Cancellation,
// failure attribution, and audit semantics are exactly GenerateContext's.
func (e *Engine) Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.admit(ctx); err != nil {
		e.metrics.Count("engine.rejected", 1)
		return nil, err
	}
	e.runs.Add(1)
	e.active.Add(1)
	defer func() {
		e.active.Add(-1)
		e.runs.Done()
		if e.sem != nil {
			<-e.sem
		}
	}()
	if e.closed.Load() {
		return nil, ErrEngineClosed
	}
	if e.multiProc {
		// SPMD epoch pairing: every process must mint the same world
		// sequence, so runs on a wire fabric cannot overlap.
		e.serial.Lock()
		defer e.serial.Unlock()
	}

	if cfg.Fabric != nil && cfg.Fabric != e.fabric {
		return nil, fmt.Errorf("core: run config carries a fabric that is not the engine's")
	}
	cfg.Fabric = e.fabric
	if cfg.Ranks < 1 {
		cfg.Ranks = e.ranks
	} else if cfg.Ranks != e.ranks {
		return nil, fmt.Errorf("core: config asks for %d ranks but the fabric has %d", cfg.Ranks, e.ranks)
	}
	if cfg.SubdomainsPerRank < 1 {
		cfg.SubdomainsPerRank = defaultSubdomainsPerRank
	}
	if cfg.NearBodyMargin <= 0 {
		cfg.NearBodyMargin = defaultNearBodyMargin
	}

	// Assign a run ID only when someone will see it (a logger or a
	// per-run tracer): the fmt.Sprintf would otherwise be the only
	// allocation telemetry-off runs pay.
	if cfg.RunID == "" && (e.logger != nil || cfg.Tracer != nil) {
		cfg.RunID = fmt.Sprintf("run-%06d", e.runSeq.Add(1))
	}

	res := &Result{}
	res.Stats.RunID = cfg.RunID
	rc := &RunCtx{ctx: ctx, cfg: cfg, stats: &res.Stats, res: res, tracer: cfg.Tracer}
	if e.logger != nil {
		e.logger.Info("run started",
			"run_id", cfg.RunID, "ranks", cfg.Ranks,
			"transport", e.fabric.TransportName(), "audit", cfg.Audit)
	}
	t0 := time.Now()
	err := rc.runStages(pipeline)
	wall := time.Since(t0)
	// Membership is fabric state, not per-phase state: fold the death
	// record once here (per-phase balancer stats would double-count a
	// rank that is already dead when a later phase starts). A run on a
	// previously degraded fabric reports those losses too — the caller is
	// running on fewer ranks than configured either way.
	for _, d := range cfg.Fabric.DeadRanks() {
		res.Stats.Resilience.RanksLost++
		cause := ""
		if d.Cause != nil {
			cause = d.Cause.Error()
		}
		res.Stats.Resilience.Deaths = append(res.Stats.Resilience.Deaths,
			RankDeathStat{Rank: d.Rank, At: d.At, Cause: cause})
	}
	// Fold the run summary into the per-run metrics registry even on
	// failure: a canceled run's partial registry is often exactly what is
	// being debugged. No-op without a tracer.
	foldMetrics(rc.tracer.Metrics(), &res.Stats)
	e.foldRun(&res.Stats, wall, err)
	if e.logger != nil {
		if err != nil {
			e.logger.Error("run failed",
				"run_id", cfg.RunID, "error", err, "seconds", wall.Seconds())
		} else {
			e.logger.Info("run completed",
				"run_id", cfg.RunID, "triangles", res.Stats.TotalTriangles,
				"tasks", len(res.Stats.Tasks), "seconds", wall.Seconds())
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// foldRun accumulates one run's summary into the engine-lifetime registry.
func (e *Engine) foldRun(st *Stats, wall time.Duration, err error) {
	m := e.metrics
	m.Count("engine.runs", 1)
	if err != nil {
		m.Count("engine.run_failures", 1)
	}
	m.Observe("engine.run.seconds", wall.Seconds())
	m.Count("engine.triangles", int64(st.TotalTriangles))
	m.Count("engine.tasks", int64(len(st.Tasks)))
	m.Count("engine.wire.bytes", st.BytesOnWire)
	m.Gauge("engine.active", float64(e.active.Load()))
}

// Close retires the engine: it waits for in-flight runs to finish and
// closes the fabric if the engine built it (an attached fabric stays the
// caller's to close). Runs submitted after Close fail with
// ErrEngineClosed. Close must not be called from inside a Run callback.
func (e *Engine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	e.runs.Wait()
	if e.ownFabric {
		return e.fabric.Close()
	}
	return nil
}
