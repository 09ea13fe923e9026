package main

import (
	"flag"
	"fmt"
	"io"

	"pamg2d/internal/adapt"
	"pamg2d/internal/cli"
	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

// run executes the meshadapt CLI against explicit streams so it is
// testable end to end.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("meshadapt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		metricSrc  = fs.String("metric", "hessian", "metric source: hessian | a metric spec (uniform:h=… | bl:…)")
		cycles     = fs.Int("cycles", 1, "metric-adaptation cycles (metric rebuilt each cycle)")
		sweeps     = fs.Int("sweeps", 0, "operator sweeps per cycle (0 = default cap)")
		band       = fs.Float64("band", 0, "edge-length acceptance band upper bound (0 = sqrt 2)")
		workers    = fs.Int("workers", 1, "evaluation/commit goroutines (0 = 1); the adapted mesh is the same for every count")
		format     = fs.String("format", "ascii", "output format: ascii | binary | vtk")
		out        = fs.String("o", "", "output file (default stdout)")
		quiet      = fs.Bool("q", false, "suppress per-cycle reports")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event file of the adaptation")
		metricsOut = fs.String("metrics", "", "write the run-metrics registry as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: meshadapt [flags] mesh-file")
	}
	// The writer is resolved here, with the other flags: an unknown format
	// fails before the mesh is adapted or -o is created.
	outFormat, err := mesh.OutputFormat(*format)
	if err != nil {
		return err
	}
	m, err := cli.ReadMesh(fs.Arg(0))
	if err != nil {
		return err
	}
	build, resample, err := adapt.MetricSource(*metricSrc)
	if err != nil {
		return err
	}

	var tracer *trace.Tracer
	if *traceOut != "" || *metricsOut != "" {
		tracer = trace.New(1)
	}
	opt := adapt.Options{Band: *band, MaxSweeps: *sweeps, Workers: *workers, Tracer: tracer, Resample: resample}

	adapted, reps, aerr := adapt.Cycles(m, *cycles, opt, build)
	if !*quiet {
		for _, r := range reps {
			fmt.Fprintf(stderr, "cycle %d   %v\n", r.Cycle, r)
		}
	}
	if tracer != nil {
		local := []*trace.Telemetry{tracer.Export(0)}
		if err := cli.WriteObservability(tracer, *traceOut, *metricsOut, local, nil, ""); err != nil {
			if aerr == nil {
				aerr = err
			} else {
				fmt.Fprintf(stderr, "meshadapt: %v\n", err)
			}
		}
	}
	if aerr != nil {
		return aerr
	}

	emit := func(w io.Writer) error { return outFormat.Write(adapted, w) }
	if *out == "" {
		return emit(stdout)
	}
	return cli.WriteFile(*out, emit)
}
