package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"

	"pamg2d/internal/audit"
	"pamg2d/internal/cli"
)

// errViolations distinguishes "the mesh failed its audit" (exit 1, report
// printed) from operational errors (exit 2).
var errViolations = errors.New("meshcheck: violations found")

// report is the JSON document meshcheck prints: the audited file, its
// sizes, the per-check statistics and every recorded violation.
type report struct {
	File       string            `json:"file"`
	Points     int               `json:"points"`
	Triangles  int               `json:"triangles"`
	Checks     []audit.CheckStat `json:"checks"`
	Violations []audit.Violation `json:"violations"`
	Ok         bool              `json:"ok"`
}

// run executes the meshcheck CLI with explicit streams so the command is
// testable end to end. The JSON report goes to stdout; a mesh that fails
// its audit returns errViolations after the report is written.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("meshcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		checks   = fs.String("checks", "", "comma-separated check names (overrides -delaunay)")
		delaunay = fs.Bool("delaunay", false, "also run the empty-circumcircle check (a mesh with constrained edges, e.g. meshgen output, legitimately fails it)")
		strict   = fs.Bool("strict", false, "strict mode: require a single watertight boundary loop with no pinched vertices")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: meshcheck [flags] <mesh-file>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("expected one mesh file, got %d arguments", fs.NArg())
	}
	file := fs.Arg(0)

	// A standalone mesh file carries no record of which edges were
	// constrained, so the Delaunay check would flag every constrained edge
	// of a CDT; the default is therefore the structural checks, which hold
	// for any conforming mesh.
	sel := audit.Structural()
	if *delaunay {
		sel = audit.All()
	}
	if *checks != "" {
		var err error
		sel, err = audit.ByName(*checks)
		if err != nil {
			return err
		}
	}

	m, err := cli.ReadMesh(file)
	if err != nil {
		return err
	}

	// A standalone mesh file carries no boundary-layer or decoupling
	// structure, so those checks mark themselves skipped via Applicable.
	// StrictDelaunay doubles as the strict-boundary switch.
	s := &audit.Snapshot{Mesh: m, StrictDelaunay: *strict}
	rep := audit.Run(s, sel)

	out := report{
		File:       file,
		Points:     m.NumPoints(),
		Triangles:  m.NumTriangles(),
		Checks:     rep.Checks,
		Violations: rep.Violations,
		Ok:         rep.Ok(),
	}
	if out.Violations == nil {
		out.Violations = []audit.Violation{}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if !out.Ok {
		return errViolations
	}
	return nil
}
