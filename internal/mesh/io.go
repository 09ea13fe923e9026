package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"pamg2d/internal/fileio"
	"pamg2d/internal/geom"
)

// Format is one output format: its writer and the HTTP content type of
// what the writer produces.
type Format struct {
	Write       func(*Mesh, io.Writer) error
	ContentType string
	size        func(*Mesh) int // bounds what Write writes
}

// OutputFormat resolves an output format name: "ascii" (WriteASCII),
// "binary" (WriteBinary) or "vtk" (WriteVTK).
func OutputFormat(name string) (Format, error) {
	switch name {
	case "ascii":
		return Format{(*Mesh).WriteASCII, "text/plain; charset=utf-8", asciiBytes}, nil
	case "binary":
		return Format{(*Mesh).WriteBinary, "application/octet-stream", binaryBytes}, nil
	case "vtk":
		return Format{(*Mesh).WriteVTK, "text/plain; charset=utf-8", vtkBytes}, nil
	}
	return Format{}, fmt.Errorf("unknown format %q", name)
}

// MaxBytes bounds the length of what f.Write writes for m when m's
// triangles index its points, so a buffer of that capacity takes the
// whole output without growing. It exceeds the text formats' length by
// the width coordinates leave unused.
func (f Format) MaxBytes(m *Mesh) int { return f.size(m) }

// The writers' output bounds. A coordinate is at most floatBytes as %.17g
// ("-2.2250738585072014e-308"), and an index no wider than the count it
// is below.
const (
	headerBytes = 192 // the header and section lines; VTK's take at most 150
	floatBytes  = 24
)

// asciiBytes bounds WriteASCII: "i x y\n" a point, "i a b c\n" a triangle.
func asciiBytes(m *Mesh) int {
	np, nt := len(m.Points), len(m.Triangles)
	return headerBytes + np*(digits(np)+3+2*floatBytes) + nt*(digits(nt)+4+3*digits(np))
}

// vtkBytes bounds WriteVTK: "x y 0\n" a point, "3 a b c\n" and "5\n" a
// triangle.
func vtkBytes(m *Mesh) int {
	np, nt := len(m.Points), len(m.Triangles)
	return headerBytes + np*(4+2*floatBytes) + nt*(7+3*digits(np))
}

// binaryBytes is WriteBinary's length and a little more.
func binaryBytes(m *Mesh) int { return headerBytes + 16*len(m.Points) + 12*len(m.Triangles) }

// digits is the number of decimal digits of n >= 0.
func digits(n int) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// Read reads a mesh in either input format, WriteBinary's or WriteASCII's,
// telling them apart by the binary magic: a binary file opens with it, an
// ASCII file with a digit or a comment. It peeks at the first bytes and
// never seeks, so pipes and /dev/stdin read like files.
func Read(r io.Reader) (*Mesh, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	if head, err := br.Peek(4); err == nil && binary.LittleEndian.Uint32(head) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadASCII(br)
}

// WriteVTK writes the mesh as a legacy-format ASCII VTK unstructured grid,
// readable by ParaView/VisIt for inspecting boundary layers and subdomain
// structure.
func (m *Mesh) WriteVTK(w io.Writer) error {
	e := fileio.NewEncoder(w, vtkBytes(m))
	e.Str("# vtk DataFile Version 3.0\npamg2d mesh\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS ")
	e.Ints(len(m.Points))
	e.Str("double")
	e.Line()
	for _, p := range m.Points {
		e.Floats(p.X, p.Y, 0)
		e.Line()
	}
	e.Str("CELLS ")
	e.Ints(len(m.Triangles), 4*len(m.Triangles))
	e.Line()
	for _, t := range m.Triangles {
		e.Ints(3, int(t[0]), int(t[1]), int(t[2])) // a cell of 3 points
		e.Line()
	}
	e.Str("CELL_TYPES ")
	e.Ints(len(m.Triangles))
	e.Line()
	for range m.Triangles {
		e.Str("5") // VTK_TRIANGLE
		e.Line()
	}
	return e.Flush()
}

// ElemRefError reports an element referencing a vertex index outside the
// mesh's point array — the corruption the readers validate against so a
// truncated or hand-edited file surfaces as a typed read error instead of
// an index panic in whatever consumes the mesh next.
type ElemRefError struct {
	Elem      int   // element (triangle) index
	Vertex    int64 // the out-of-range vertex reference
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
				return &ElemRefError{Elem: i, Vertex: int64(v), NumPoints: int(np)}
			}
		}
	}
	return nil
}

// ReadASCII reads a mesh written by WriteASCII (Triangle's .node/.ele
// sections concatenated), one record per line; blank lines and '#' lines
// are skipped. Records may come in any index order; a record given twice
// keeps the later one, and an index never given reads as the zero point or
// triangle.
func ReadASCII(r io.Reader) (*Mesh, error) {
	sc := fileio.NewScanner(r)
	sc.Next(4, true)
	// Attribute and boundary-marker counts are parsed, not kept.
	np, dim, _, _ := int(sc.Int(0)), sc.Int(1), sc.Int(2), sc.Int(3)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mesh: reading node header: %w", err)
	}
	if dim != 2 {
		return nil, fmt.Errorf("mesh: dimension %d not supported", dim)
	}
	if np < 0 || np > maxCount {
		return nil, fmt.Errorf("mesh: node count %d out of range", np)
	}
	pts := make([]geom.Point, 0, min(np, fileio.MaxPrealloc))
	ids := make([]int32, 0, min(np, fileio.MaxPrealloc))
	for i := 0; i < np; i++ {
		sc.Next(3, true)
		idx, x, y := sc.Int(0), sc.Float(1), sc.Float(2)
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("mesh: reading node %d: %w", i, err)
		}
		if idx < 0 || idx >= int64(np) {
			return nil, fmt.Errorf("mesh: node index %d out of range", idx)
		}
		pts = append(pts, geom.Pt(x, y))
		ids = append(ids, int32(idx))
	}
	sc.Next(3, true)
	nt, perTri, _ := int(sc.Int(0)), sc.Int(1), sc.Int(2)
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mesh: reading element header: %w", err)
	}
	if perTri != 3 {
		return nil, fmt.Errorf("mesh: %d corners per element not supported", perTri)
	}
	if nt < 0 || nt > maxCount {
		return nil, fmt.Errorf("mesh: element count %d out of range", nt)
	}
	tris := make([][3]int32, 0, min(nt, fileio.MaxPrealloc))
	tids := make([]int32, 0, min(nt, fileio.MaxPrealloc))
	for i := 0; i < nt; i++ {
		sc.Next(4, true)
		idx, t := sc.Int(0), [3]int64{sc.Int(1), sc.Int(2), sc.Int(3)}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("mesh: reading element %d: %w", i, err)
		}
		if idx < 0 || idx >= int64(nt) {
			return nil, fmt.Errorf("mesh: element index %d out of range", idx)
		}
		for _, v := range t {
			if v < 0 || v >= int64(np) {
				return nil, &ElemRefError{Elem: int(idx), Vertex: v, NumPoints: np}
			}
		}
		tris = append(tris, [3]int32{int32(t[0]), int32(t[1]), int32(t[2])})
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
