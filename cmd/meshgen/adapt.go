package main

import (
	"fmt"
	"io"

	"pamg2d/internal/adapt"
	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/mesh"
	"pamg2d/internal/solver"
	"pamg2d/internal/trace"
)

// adaptSolver is the shared solve for the hessian metric source and the
// isotropic loop.
var adaptSolver = solver.Options{Tol: 1e-8, MaxIters: 20000, Method: solver.GaussSeidel}

// runAdapt executes the post-generation adaptation cycles requested via
// -adapt-cycles and -adapt-metric and returns the final mesh. Every
// cycle's mesh is audited with the adapted profile; a violation fails the
// run.
func runAdapt(cfg core.Config, m *mesh.Mesh, cycles int, metricSpec string, iso bool, tracer *trace.Tracer, stderr io.Writer, quiet bool) (*mesh.Mesh, error) {
	if iso {
		// One extra step: Loop's first trip reproduces the mesh already
		// generated; adaptation happens between trips.
		steps, err := adapt.Loop(cfg, adapt.DefaultProblem, adapt.LoopOptions{Steps: cycles + 1, Solver: adaptSolver})
		if err != nil {
			return nil, err
		}
		for i, st := range steps {
			if aerr := audit.Run(&audit.Snapshot{Mesh: st.Mesh}, audit.Adapted()).Error(); aerr != nil {
				return nil, fmt.Errorf("adapt-iso cycle %d audit: %w", i, aerr)
			}
			if !quiet {
				fmt.Fprintf(stderr, "adapt-iso %d          %d triangles, error est. %.4f, %d solver iters\n",
					i, st.Triangles, st.TotalError, st.Iterations)
			}
		}
		return steps[len(steps)-1].Mesh, nil
	}

	build, resample, err := adapt.MetricSource(metricSpec, adapt.DefaultSolve(adaptSolver))
	if err != nil {
		return nil, err
	}
	opt := adapt.Options{
		Workers:  cfg.Ranks,
		Tracer:   tracer,
		Resample: resample,
	}
	adapted, reps, err := adapt.Cycles(m, cycles, opt, build)
	if !quiet {
		for _, r := range reps {
			fmt.Fprintf(stderr, "adapt %d              %d splits, %d collapses, %d swaps, %d smooths; %.1f%% of %d edges in band (%d sweeps)\n",
				r.Cycle, r.Result.Splits, r.Result.Collapses, r.Result.Swaps, r.Result.Smooths,
				100*r.Result.InBand, r.Result.Edges, r.Result.Sweeps)
		}
	}
	if err != nil {
		return nil, err
	}
	return adapted, nil
}
