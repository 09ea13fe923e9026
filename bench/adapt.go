package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"pamg2d/internal/adapt"
	"pamg2d/internal/audit"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/trace"
)

// runAdapt is the adaptation workload: set-up generates the input mesh at
// 2 ranks and verifies one adaptation cycle; the timed operation is one
// adapt.Adapt cycle toward the analytic boundary-layer metric with
// Resample set, alternating Workers=1,Ranks=1 and Workers=2,Ranks=2.
func runAdapt(rc *runCtx) *workloadResult {
	start := time.Now()
	r := newResult(wlAdapt)
	col := r.col
	cfg := rc.in.AdaptSetup

	// Set-up: input mesh, metric field, and the verified adapted mesh. The
	// engine's result does not depend on the worker count, so one verified
	// mesh serves both modes.
	rc.cal.sample()
	t0 := time.Now()
	fn, err := metric.ParseSpec(rc.in.AdaptMetric)
	if err != nil {
		r.op(err)
		return r.finish(rc, start)
	}
	gen, _, err := generate(cfg, 2, false, nil)
	if err == nil {
		err = auditFresh(gen.Mesh, audit.Structural())
	}
	r.op(err)
	if err != nil {
		return r.finish(rc, start)
	}
	input := gen.Mesh
	field := metric.Analytic(input, fn)
	cycle := func(workers int, tr *trace.Tracer) (*mesh.Mesh, *adapt.Result, time.Duration, error) {
		t := time.Now()
		m, res, err := adapt.Adapt(input, field, adapt.Options{Resample: fn, Workers: workers, Ranks: workers, Tracer: tr})
		return m, res, time.Since(t), err
	}
	verified, _, _, err := cycle(1, nil)
	if err == nil {
		err = auditFresh(verified, audit.Adapted())
	}
	r.op(err)
	if err != nil {
		return r.finish(rc, start)
	}
	want, err := meshHash(verified)
	if err != nil {
		r.fail(err)
		return r.finish(rc, start)
	}
	r.record("adapted", verified, want)
	col.set("setup_s", time.Since(t0).Seconds())

	// Timed cycles.
	ro := &rotation{weight: []int{1, 1}, floor: []int{rc.reps(4), rc.reps(3)}, count: make([]int, 2)}
	var last *adapt.Result
	deadline := time.Now().Add(rc.budget())
	for !ro.done() || time.Now().Before(deadline) {
		workers := ro.next() + 1
		runtime.GC()
		rc.cal.sample()
		mark := markMem()
		m, res, wall, err := cycle(workers, nil)
		mb, ak := mark.since()
		if err == nil {
			err = checkMesh(m, want, fmt.Sprintf("%s/w%d", wlAdapt, workers))
		}
		r.op(err)
		if err != nil {
			continue
		}
		if workers == 1 {
			col.add("wall_1r_s", wall.Seconds())
			col.add("alloc_mb", mb)
			col.add("allocs_k", ak)
			col.add("adapt.ops_per_s", float64(res.Splits+res.Collapses+res.Swaps+res.Smooths)/wall.Seconds())
			last = res
		} else {
			col.add("wall_2r_s", wall.Seconds())
		}
	}
	if last != nil {
		ops := last.Splits + last.Collapses + last.Swaps + last.Smooths
		col.set("adapt.in_band_pct", 100*last.InBand)
		col.set("adapt.sweeps", float64(last.Sweeps))
		col.set("adapt.splits", float64(last.Splits))
		col.set("adapt.collapses", float64(last.Collapses))
		col.set("adapt.swaps", float64(last.Swaps))
		col.set("adapt.smooths", float64(last.Smooths))
		col.set("adapt.edges", float64(last.Edges))
		if ops+last.Conflicts > 0 {
			col.set("adapt.conflict_frac", float64(last.Conflicts)/float64(ops+last.Conflicts))
		}
	}
	if col.has("wall_1r_s") && col.has("wall_2r_s") {
		col.set("adapt.speedup_2w", col.median("wall_1r_s")/col.median("wall_2r_s"))
	}
	if !rc.traced {
		return r.finish(rc, start)
	}

	// Traced pass: the cycle with adapt.Options.Tracer on, then the layers
	// under the set-up generation, then the adapted-profile audit of the
	// workload's real output.
	rec := newRecorder()
	root := rec.begin(0, "", "bench", "traced-pass")
	tr := trace.New(1)
	id := rec.begin(root, "run-1w", "adapt", "Adapt/1w")
	m, res, wall, err := cycle(1, tr)
	if err == nil {
		err = checkMesh(m, want, wlAdapt+"/traced-1w")
	}
	r.op(err)
	if err == nil {
		rec.end(id, map[string]float64{"sweeps": float64(res.Sweeps), "edges": float64(res.Edges)})
		if err := writeChromeTrace(filepath.Join(rc.outDir, wlAdapt+".trace.json"), tr); err != nil {
			r.fail(err)
		}
	} else {
		rec.end(id, nil)
	}
	spec := &genSpec{name: wlAdapt, cfg: cfg, auditReps: 1}
	referencePass(rc, spec, r, rec, root, true)
	if err == nil {
		// After the shared tail, so these describe the adaptation itself.
		col.set("trace.overhead_frac", wall.Seconds()/col.median("wall_1r_s")-1)
		col.set("trace.events", float64(tr.Events()))
		if v := auditAdapted(rec, root, verified, col); v > 0 {
			r.fail(fmt.Errorf("%s: adapted-profile audit: %d violations", wlAdapt, v))
		}
	}
	if err := r.finishTrace(rc, rec, root); err != nil {
		r.fail(err)
	}
	return r.finish(rc, start)
}
