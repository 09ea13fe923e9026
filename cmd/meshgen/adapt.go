package main

import (
	"fmt"
	"io"

	"pamg2d/internal/adapt"
	"pamg2d/internal/mesh"
	"pamg2d/internal/solver"
	"pamg2d/internal/trace"
)

// adaptSolver is the solve behind the hessian metric source.
var adaptSolver = solver.Options{Tol: 1e-8, MaxIters: 20000, Method: solver.GaussSeidel}

// runAdapt executes the post-generation adaptation cycles requested via
// -adapt-cycles and -adapt-metric and returns the final mesh. Every
// cycle's mesh is audited with the adapted profile; a violation fails the
// run.
func runAdapt(m *mesh.Mesh, cycles int, metricSpec string, workers int, tracer *trace.Tracer, stderr io.Writer, quiet bool) (*mesh.Mesh, error) {
	build, resample, err := adapt.MetricSource(metricSpec, adapt.DefaultSolve(adaptSolver))
	if err != nil {
		return nil, err
	}
	opt := adapt.Options{
		Workers:  workers,
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
