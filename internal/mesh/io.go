package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"

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

// chunkSize is the encoder's buffer; chunkSlack is room past its flush
// point for the widest record a writer appends: an ASCII point line of 10
// index digits is 61 bytes, a triangle line of four out-of-range int32
// indices 47.
const (
	chunkSize  = 64 << 10
	chunkSlack = 128
)

// encoder appends a writer's fields into one reused chunk with strconv
// and encoding/binary, byte for byte what fmt's %d and %.17g and
// binary.Write produce, and hands each full chunk to w. A destination
// that offers room for the whole output (a bytes.Buffer presized at
// Format.MaxBytes) is appended to in place and written once at the end,
// so rendering into it allocates nothing. The first write error sticks:
// later chunks are dropped and flush returns it.
type encoder struct {
	w     io.Writer
	buf   []byte
	limit int // flush once buf is longer
	err   error
}

// newEncoder starts an encoder for an output of at most size bytes.
func newEncoder(w io.Writer, size int) encoder {
	if ab, ok := w.(interface{ AvailableBuffer() []byte }); ok {
		if b := ab.AvailableBuffer(); cap(b) >= size {
			return encoder{w: w, buf: b, limit: math.MaxInt}
		}
	}
	n := max(min(size, chunkSize), 2*chunkSlack)
	return encoder{w: w, buf: make([]byte, 0, n), limit: n - chunkSlack}
}

func (e *encoder) str(s string) { e.buf = append(e.buf, s...) }
func (e *encoder) sep()         { e.buf = append(e.buf, ' ') }
func (e *encoder) int(v int64)  { e.buf = strconv.AppendInt(e.buf, v, 10) }

// float appends x as %.17g, which reads back as x exactly.
func (e *encoder) float(x float64) { e.buf = strconv.AppendFloat(e.buf, x, 'g', 17, 64) }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) f64(x float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(x))
}

// line ends a text record and flushes the chunk once the next record might
// not fit.
func (e *encoder) line() {
	e.buf = append(e.buf, '\n')
	e.record()
}

// record flushes the chunk once the next record might not fit.
func (e *encoder) record() {
	if len(e.buf) > e.limit {
		e.flush()
	}
}

// flush hands the chunk to w and returns the first write error.
func (e *encoder) flush() error {
	if e.err == nil && len(e.buf) > 0 {
		n, err := e.w.Write(e.buf)
		if err == nil && n < len(e.buf) {
			err = io.ErrShortWrite
		}
		e.err = err
	}
	e.buf = e.buf[:0]
	return e.err
}

// Read reads a mesh in either input format, WriteBinary's or WriteASCII's,
// telling them apart by the binary magic: a binary file opens with it, an
// ASCII file with a digit. It peeks at the first bytes and never seeks, so
// pipes and /dev/stdin read like files.
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
	e := newEncoder(w, vtkBytes(m))
	e.str("# vtk DataFile Version 3.0\npamg2d mesh\nASCII\nDATASET UNSTRUCTURED_GRID\nPOINTS ")
	e.int(int64(len(m.Points)))
	e.str(" double")
	e.line()
	for _, p := range m.Points {
		e.float(p.X)
		e.sep()
		e.float(p.Y)
		e.str(" 0")
		e.line()
	}
	e.str("CELLS ")
	e.int(int64(len(m.Triangles)))
	e.sep()
	e.int(4 * int64(len(m.Triangles)))
	e.line()
	for _, t := range m.Triangles {
		e.str("3 ")
		e.int(int64(t[0]))
		e.sep()
		e.int(int64(t[1]))
		e.sep()
		e.int(int64(t[2]))
		e.line()
	}
	e.str("CELL_TYPES ")
	e.int(int64(len(m.Triangles)))
	e.line()
	for range m.Triangles {
		e.str("5") // VTK_TRIANGLE
		e.line()
	}
	return e.flush()
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
