// Command meshcheck audits a mesh file against the internal/audit
// invariant checks: exact-predicate orientation, conformity
// (duplicate/overlapping elements, non-manifold edges, duplicate and
// orphan points), and boundary structure by default; -delaunay adds the
// empty-circumcircle test (only sound for meshes without constrained
// edges — a CDT from meshgen legitimately fails it at its constraints,
// which the file format does not record). It reads the Triangle-style
// ASCII format and the compact binary format written by meshgen, telling
// them apart from the file's first bytes (mesh.Read, so a pipe or
// /dev/stdin works too), and prints a machine-readable JSON report to
// stdout.
//
// Exit status: 0 when the mesh passes, 1 when violations are found (the
// report still prints), 2 on usage or read errors.
//
// Usage:
//
//	meshcheck mesh.txt
//	meshgen -format binary | meshcheck /dev/stdin
//	meshcheck -delaunay triangulation.txt
//	meshcheck -checks orientation,conformity -strict mesh.txt
package main

import (
	"errors"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshcheck: ")
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if errors.Is(err, errViolations) {
		os.Exit(1)
	}
	if err != nil {
		log.Println(err)
		os.Exit(2)
	}
}
