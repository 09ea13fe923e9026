// Command meshstats reads a mesh produced by meshgen (Triangle-format
// ASCII or pamg2d binary) and prints a structural and quality report:
// audits, element counts, area, the angle histogram, anisotropy, the
// boundary-edge count, and a hash of the triangle set that ignores point
// and triangle order. Use it to inspect meshes before handing them to a
// flow solver, or to tell whether two meshes hold the same triangles.
package main

import (
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("meshstats: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}
