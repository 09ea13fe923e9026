package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
)

// run executes the meshstats CLI against explicit streams so it is
// testable.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("meshstats", flag.ContinueOnError)
	fs.SetOutput(stdout)
	format := fs.String("format", "auto", "input format: ascii | binary | auto")
	metricSpec := fs.String("metric", "", "also report metric-space quality under this metric spec (uniform:h=… | bl:…)")
	band := fs.Float64("band", 0, "metric-length acceptance band upper bound (0 = sqrt 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: meshstats [-format ascii|binary] mesh-file")
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var m *mesh.Mesh
	switch *format {
	case "ascii":
		m, err = mesh.ReadASCII(f)
	case "binary":
		m, err = mesh.ReadBinary(f)
	case "auto":
		// The binary magic 0x504d3244 is stored little-endian, so the file
		// opens with the bytes "D2MP"; ASCII opens with a digit.
		var head [4]byte
		if _, err := f.Read(head[:]); err != nil {
			return err
		}
		if _, err := f.Seek(0, 0); err != nil {
			return err
		}
		if head == [4]byte{0x44, 0x32, 0x4d, 0x50} {
			m, err = mesh.ReadBinary(f)
		} else {
			m, err = mesh.ReadASCII(f)
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "file          %s\n", path)
	fmt.Fprintf(stdout, "points        %d\n", m.NumPoints())
	fmt.Fprintf(stdout, "triangles     %d\n", m.NumTriangles())
	fmt.Fprintf(stdout, "area          %.6g\n", m.Area())
	fmt.Fprintf(stdout, "boundary      %d edges\n", len(m.BoundaryEdges()))
	fmt.Fprintf(stdout, "triangle set  %s\n", m.TriangleSetHash())
	if err := m.Audit(); err != nil {
		fmt.Fprintf(stdout, "audit         FAILED: %v\n", err)
		return fmt.Errorf("mesh failed audit: %w", err)
	}
	fmt.Fprintf(stdout, "audit         ok (CCW, conforming, no overlaps)\n")

	q := m.Quality()
	fmt.Fprintf(stdout, "min angle     %.2f deg\n", q.MinAngleDeg)
	fmt.Fprintf(stdout, "max angle     %.2f deg\n", q.MaxAngleDeg)
	fmt.Fprintf(stdout, "worst ratio   %.2f (circumradius / shortest edge)\n", q.MaxRadiusEdge)
	fmt.Fprintf(stdout, "max aspect    %.1f : 1\n", q.MaxAspectRatio)
	fmt.Fprintf(stdout, "areas         min %.3g  mean %.3g  max %.3g\n", q.MinArea, q.MeanArea, q.MaxArea)
	fmt.Fprintln(stdout, "\nminimum-angle histogram (10-degree buckets):")
	maxCount := 0
	for _, c := range q.AngleHistogram {
		if c > maxCount {
			maxCount = c
		}
	}
	for b, c := range q.AngleHistogram {
		if c == 0 {
			continue
		}
		bar := ""
		if maxCount > 0 {
			bar = strings.Repeat("#", 1+c*40/maxCount)
		}
		fmt.Fprintf(stdout, "  %3d-%3d deg %8d %s\n", b*10, b*10+10, c, bar)
	}

	if *metricSpec != "" {
		fn, err := metric.ParseSpec(*metricSpec)
		if err != nil {
			return err
		}
		st, err := metric.FieldStats(m, metric.Analytic(m, fn), *band)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nmetric        %s\n", *metricSpec)
		fmt.Fprintf(stdout, "metric edges  %d\n", st.Edges)
		fmt.Fprintf(stdout, "metric len    min %.3g  mean %.3g  max %.3g\n", st.MinLen, st.MeanLen, st.MaxLen)
		fmt.Fprintf(stdout, "in band       %.1f%% of edges\n", 100*st.InBand)
		fmt.Fprintf(stdout, "anisotropy    min %.2f  mean %.2f  max %.2f\n", st.MinAspect, st.MeanAspect, st.MaxAspect)
		fmt.Fprintln(stdout, "\nanisotropy-ratio histogram (power-of-two buckets):")
		maxCount = 0
		for _, c := range st.AspectHist {
			if c > maxCount {
				maxCount = c
			}
		}
		for b, c := range st.AspectHist {
			if c == 0 {
				continue
			}
			bar := ""
			if maxCount > 0 {
				bar = strings.Repeat("#", 1+c*40/maxCount)
			}
			lo := 1 << b
			if b == len(st.AspectHist)-1 {
				fmt.Fprintf(stdout, "  %4d+      %8d %s\n", lo, c, bar)
			} else {
				fmt.Fprintf(stdout, "  %4d-%-4d  %8d %s\n", lo, lo*2, c, bar)
			}
		}
	}
	return nil
}
