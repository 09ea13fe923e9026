package adapt

// Cycle driver shared by the meshgen and meshadapt CLIs: resolve a
// metric source (analytic spec or Hessian-of-solution), then alternate
// build-metric / run-operators / audit for the requested number of
// cycles. Re-building the metric between cycles is what makes
// "hessian" adaptive in the Figure 1 sense — the solution is recomputed
// on each adapted mesh, so the metric chases the features the previous
// cycle resolved.

import (
	"fmt"
	"math"

	"pamg2d/internal/audit"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
	"pamg2d/internal/solver"
)

// BoxBC classifies boundary edges by position: edges on the mesh
// bounding-box perimeter are the far field (value 0), everything else is
// a body surface (value 1). This matches how every supported geometry is
// laid out — the far-field loop is the bounding rectangle — and needs no
// knowledge of the original PSLG, so it also works for meshes read back
// from files.
func BoxBC(m *mesh.Mesh) solver.BC {
	bb := geom.BBoxOf(m.Points)
	tol := 1e-6 * math.Max(bb.Width(), bb.Height())
	return solver.AirfoilBC(func(p geom.Point) bool {
		return p.X > bb.Min.X+tol && p.X < bb.Max.X-tol &&
			p.Y > bb.Min.Y+tol && p.Y < bb.Max.Y-tol
	})
}

// DefaultProblem is the standard convection-diffusion problem the CLIs
// solve when the metric source is "hessian": unit body temperature
// convected downstream, far field held at zero, under BoxBC
// classification.
func DefaultProblem(m *mesh.Mesh) solver.Problem {
	return solver.Problem{Mesh: m, Diffusivity: 0.05, Velocity: geom.V(1, 0), Boundary: BoxBC(m)}
}

// hessianSolve is the solve behind the hessian metric source.
var hessianSolve = solver.Options{Tol: 1e-8, MaxIters: 20000, Method: solver.GaussSeidel}

// CycleReport records one metric-adaptation cycle.
type CycleReport struct {
	Cycle  int
	Result *Result
	// Audit is the adapted-profile report for the cycle's output mesh
	// (audit.Adapted: everything except the empty-circumcircle check).
	Audit *audit.Report
}

// String is the cycle's one-line summary: operator counts, the share of
// edges in band and the sweeps it took.
func (r CycleReport) String() string {
	return fmt.Sprintf("%d splits, %d collapses, %d swaps, %d smooths; %.1f%% of %d edges in band (%d sweeps)",
		r.Result.Splits, r.Result.Collapses, r.Result.Swaps, r.Result.Smooths,
		100*r.Result.InBand, r.Result.Edges, r.Result.Sweeps)
}

// MetricSource resolves spec — "hessian" (or empty), or an analytic spec
// understood by metric.ParseSpec — into a field builder evaluated against
// each cycle's current mesh, plus an analytic resample function when the
// source is a closed-form spec (nil for "hessian", where new vertices
// interpolate instead). The Hessian source solves DefaultProblem on each
// cycle's mesh.
func MetricSource(spec string) (func(*mesh.Mesh) (metric.Field, error), func(geom.Point) metric.M, error) {
	if spec == "" || spec == "hessian" {
		build := func(m *mesh.Mesh) (metric.Field, error) {
			sol, err := solver.Solve(DefaultProblem(m), hessianSolve)
			if err != nil {
				return nil, fmt.Errorf("adapt: hessian metric solve: %w", err)
			}
			f, err := metric.FromHessian(m, sol.U, metric.HessianOpts{})
			if err != nil {
				return nil, err
			}
			if _, err := metric.LimitGradation(m, f, 1.5, 20); err != nil {
				return nil, err
			}
			return f, nil
		}
		return build, nil, nil
	}
	fn, err := metric.ParseSpec(spec)
	if err != nil {
		return nil, nil, err
	}
	build := func(m *mesh.Mesh) (metric.Field, error) {
		return metric.Analytic(m, fn), nil
	}
	return build, fn, nil
}

// Cycles runs max(cycles, 1) adaptation cycles on m, auditing every
// cycle's output mesh with the adapted profile. The input mesh is not modified.
// On an audit failure the offending mesh's report is the last entry of
// the returned slice and the error wraps an *audit.Error.
func Cycles(m *mesh.Mesh, cycles int, opt Options, build func(*mesh.Mesh) (metric.Field, error)) (*mesh.Mesh, []CycleReport, error) {
	var reps []CycleReport
	for c := 0; c < max(cycles, 1); c++ {
		f, err := build(m)
		if err != nil {
			return m, reps, fmt.Errorf("adapt: cycle %d metric: %w", c, err)
		}
		next, res, err := Adapt(m, f, opt)
		if err != nil {
			return m, reps, fmt.Errorf("adapt: cycle %d: %w", c, err)
		}
		rep := audit.Run(&audit.Snapshot{Mesh: next}, audit.Adapted())
		reps = append(reps, CycleReport{Cycle: c, Result: res, Audit: rep})
		if aerr := rep.Error(); aerr != nil {
			return next, reps, fmt.Errorf("adapt: cycle %d audit: %w", c, aerr)
		}
		m = next
	}
	return m, reps, nil
}
