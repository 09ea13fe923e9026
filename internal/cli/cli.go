// Package cli holds what the commands under cmd/ share: reading a mesh
// file, writing an artifact file, the structured logger behind the
// -log-format and -log-level flags, and the trace and metrics export.
package cli

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"

	"pamg2d/internal/mesh"
	"pamg2d/internal/trace"
)

// ReadMesh reads the mesh file at path in either format (mesh.Read); a
// read error names the file.
func ReadMesh(path string) (*mesh.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := mesh.Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// WriteFile creates path and fills it with emit, returning emit's error,
// or else the one Close reports.
func WriteFile(path string, emit func(io.Writer) error) error {
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

// NewLogger builds a command's slog logger from its -log-format (text |
// json) and -log-level (off | debug | info | warn | error) flags. Level
// "off" returns nil: the fully disabled path, with no handler allocated
// and no slog calls made.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	if level == "" || level == "off" {
		return nil, nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("unknown log format %q", format)
}

// WriteObservability exports the merged Chrome trace-event file and/or the
// run-metrics registry to the requested paths (either may be empty).
// telems carries one snapshot per process — just the local tr.Export(0)
// for a single-process run — and clocks and transport feed the trace
// metadata. The merged trace is validated before it touches disk, so a
// defect in the merge surfaces as a run error instead of a file Perfetto
// rejects.
func WriteObservability(tr *trace.Tracer, tracePath, metricsPath string,
	telems []*trace.Telemetry, clocks []trace.RankClock, transport string) error {
	if tracePath != "" {
		var buf bytes.Buffer
		if err := trace.WriteMergedTrace(&buf, telems, clocks, transport); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if _, err := trace.ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
			return fmt.Errorf("merged trace failed validation: %w", err)
		}
		if err := os.WriteFile(tracePath, buf.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if metricsPath != "" {
		if err := WriteFile(metricsPath, tr.Metrics().WriteMetrics); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	return nil
}
