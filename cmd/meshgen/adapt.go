package main

import (
	"fmt"
	"io"

	"pamg2d/internal/adapt"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

// runAdapt executes the post-generation adaptation cycles requested via
// -adapt-cycles and -adapt-metric and returns the final mesh. Every
// cycle's mesh is audited with the adapted profile; a violation fails the
// run.
func runAdapt(m *mesh.Mesh, cycles int, metricSpec string, workers int, tracer *trace.Tracer, stderr io.Writer, quiet bool) (*mesh.Mesh, error) {
	build, resample, err := adapt.MetricSource(metricSpec)
	if err != nil {
		return nil, err
	}
	opt := adapt.Options{Workers: workers, Tracer: tracer, Resample: resample}
	adapted, reps, err := adapt.Cycles(m, cycles, opt, build)
	if !quiet {
		for _, r := range reps {
			fmt.Fprintf(stderr, "adapt %d              %v\n", r.Cycle, r)
		}
	}
	if err != nil {
		return nil, err
	}
	return adapted, nil
}
