package mesh

import (
	"bufio"
	"fmt"
	"io"

	"pamg2d/internal/geom"
)

// WriteVTK writes the mesh as a legacy-format ASCII VTK unstructured grid,
// readable by ParaView/VisIt for inspecting boundary layers and subdomain
// structure. When cellData is non-nil it must have one value per triangle
// (e.g. a solver field or the owning rank) and is emitted as CELL_DATA.
func (m *Mesh) WriteVTK(w io.Writer, cellData []float64) error {
	if cellData != nil && len(cellData) != len(m.Triangles) {
		return fmt.Errorf("mesh: cell data has %d values for %d triangles", len(cellData), len(m.Triangles))
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintln(bw, "# vtk DataFile Version 3.0")
	fmt.Fprintln(bw, "pamg2d mesh")
	fmt.Fprintln(bw, "ASCII")
	fmt.Fprintln(bw, "DATASET UNSTRUCTURED_GRID")
	fmt.Fprintf(bw, "POINTS %d double\n", len(m.Points))
	for _, p := range m.Points {
		fmt.Fprintf(bw, "%.17g %.17g 0\n", p.X, p.Y)
	}
	fmt.Fprintf(bw, "CELLS %d %d\n", len(m.Triangles), 4*len(m.Triangles))
	for _, t := range m.Triangles {
		fmt.Fprintf(bw, "3 %d %d %d\n", t[0], t[1], t[2])
	}
	fmt.Fprintf(bw, "CELL_TYPES %d\n", len(m.Triangles))
	for range m.Triangles {
		fmt.Fprintln(bw, "5") // VTK_TRIANGLE
	}
	if cellData != nil {
		fmt.Fprintf(bw, "CELL_DATA %d\n", len(m.Triangles))
		fmt.Fprintln(bw, "SCALARS field double 1")
		fmt.Fprintln(bw, "LOOKUP_TABLE default")
		for _, v := range cellData {
			fmt.Fprintf(bw, "%.17g\n", v)
		}
	}
	return bw.Flush()
}

// ElemRefError reports an element referencing a vertex index outside the
// mesh's point array — the corruption the readers validate against so a
// truncated or hand-edited file surfaces as a typed read error instead of
// an index panic in whatever consumes the mesh next.
type ElemRefError struct {
	Elem      int   // element (triangle) index
	Vertex    int32 // the out-of-range vertex reference
	NumPoints int   // size of the point array it must index
}

func (e *ElemRefError) Error() string {
	return fmt.Sprintf("mesh: element %d references node %d of %d", e.Elem, e.Vertex, e.NumPoints)
}

// validateTriangles bounds-checks every vertex reference of every triangle.
func validateTriangles(m *Mesh) error {
	np := int32(len(m.Points))
	for i, t := range m.Triangles {
		for _, v := range t {
			if v < 0 || v >= np {
				return &ElemRefError{Elem: i, Vertex: v, NumPoints: int(np)}
			}
		}
	}
	return nil
}

// ReadASCII reads a mesh written by WriteASCII (Triangle's .node/.ele
// sections concatenated). Records may come in any index order; a record
// given twice keeps the later one, and an index never given reads as the
// zero point or triangle.
func ReadASCII(r io.Reader) (*Mesh, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var np, dim, nattr, nmark int
	if _, err := fmt.Fscan(br, &np, &dim, &nattr, &nmark); err != nil {
		return nil, fmt.Errorf("mesh: reading node header: %w", err)
	}
	if dim != 2 {
		return nil, fmt.Errorf("mesh: dimension %d not supported", dim)
	}
	if np < 0 || np > maxCount {
		return nil, fmt.Errorf("mesh: node count %d out of range", np)
	}
	pts := make([]geom.Point, 0, min(np, readChunk))
	ids := make([]int32, 0, min(np, readChunk))
	for i := 0; i < np; i++ {
		var idx int
		var x, y float64
		if _, err := fmt.Fscan(br, &idx, &x, &y); err != nil {
			return nil, fmt.Errorf("mesh: reading node %d: %w", i, err)
		}
		if idx < 0 || idx >= np {
			return nil, fmt.Errorf("mesh: node index %d out of range", idx)
		}
		pts = append(pts, geom.Pt(x, y))
		ids = append(ids, int32(idx))
	}
	var nt, perTri, nattr2 int
	if _, err := fmt.Fscan(br, &nt, &perTri, &nattr2); err != nil {
		return nil, fmt.Errorf("mesh: reading element header: %w", err)
	}
	if perTri != 3 {
		return nil, fmt.Errorf("mesh: %d corners per element not supported", perTri)
	}
	if nt < 0 || nt > maxCount {
		return nil, fmt.Errorf("mesh: element count %d out of range", nt)
	}
	tris := make([][3]int32, 0, min(nt, readChunk))
	tids := make([]int32, 0, min(nt, readChunk))
	for i := 0; i < nt; i++ {
		var idx int
		var a, b, c int32
		if _, err := fmt.Fscan(br, &idx, &a, &b, &c); err != nil {
			return nil, fmt.Errorf("mesh: reading element %d: %w", i, err)
		}
		if idx < 0 || idx >= nt {
			return nil, fmt.Errorf("mesh: element index %d out of range", idx)
		}
		for _, v := range []int32{a, b, c} {
			if v < 0 || int(v) >= np {
				return nil, &ElemRefError{Elem: idx, Vertex: v, NumPoints: np}
			}
		}
		tris = append(tris, [3]int32{a, b, c})
		tids = append(tids, int32(idx))
	}
	return &Mesh{Points: byIndex(pts, ids), Triangles: byIndex(tris, tids)}, nil
}

// byIndex places vals[i] at index ids[i] of a slice as long as vals, the
// later of two values for one index winning. Records in index order, as
// WriteASCII emits them, come back as vals itself.
func byIndex[T any](vals []T, ids []int32) []T {
	for i, id := range ids {
		if int(id) != i {
			out := make([]T, len(vals))
			for j, id := range ids {
				out[id] = vals[j]
			}
			return out
		}
	}
	return vals
}
