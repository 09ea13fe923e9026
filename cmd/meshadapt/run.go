package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pamg2d/internal/adapt"
	"pamg2d/internal/mesh"
	"pamg2d/internal/solver"
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
	var write func(*mesh.Mesh, io.Writer) error
	switch *format {
	case "ascii":
		write = (*mesh.Mesh).WriteASCII
	case "binary":
		write = (*mesh.Mesh).WriteBinary
	case "vtk":
		write = func(m *mesh.Mesh, w io.Writer) error { return m.WriteVTK(w, nil) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	m, err := readMesh(fs.Arg(0))
	if err != nil {
		return err
	}

	solve := adapt.DefaultSolve(solver.Options{Tol: 1e-8, MaxIters: 20000, Method: solver.GaussSeidel})
	build, resample, err := adapt.MetricSource(*metricSrc, solve)
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
			fmt.Fprintf(stderr, "cycle %d   %d splits, %d collapses, %d swaps, %d smooths; %.1f%% of %d edges in band (%d sweeps)\n",
				r.Cycle, r.Result.Splits, r.Result.Collapses, r.Result.Swaps, r.Result.Smooths,
				100*r.Result.InBand, r.Result.Edges, r.Result.Sweeps)
		}
	}
	if tracer != nil {
		if err := writeObservability(tracer, *traceOut, *metricsOut); err != nil {
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

	emit := func(w io.Writer) error { return write(adapted, w) }
	if *out == "" {
		return emit(stdout)
	}
	return writeFile(*out, emit)
}

// readMesh opens path and sniffs the format: the binary magic is stored
// little-endian so the file opens with the bytes "D2MP"; ASCII opens
// with a digit.
func readMesh(path string) (*mesh.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var head [4]byte
	if _, err := f.Read(head[:]); err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, 0); err != nil {
		return nil, err
	}
	if head == [4]byte{0x44, 0x32, 0x4d, 0x50} {
		return mesh.ReadBinary(f)
	}
	return mesh.ReadASCII(f)
}

// writeObservability exports the tracer's Chrome trace-event file and/or
// run-metrics registry to the requested paths (either may be empty).
func writeObservability(tr *trace.Tracer, tracePath, metricsPath string) error {
	if tracePath != "" {
		if err := writeFile(tracePath, tr.WriteTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, tr.Metrics().WriteMetrics); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}

// writeFile creates path and fills it with emit, returning emit's error,
// or else the one Close reports.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
