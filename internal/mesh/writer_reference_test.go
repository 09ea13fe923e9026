package mesh

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"pamg2d/internal/geom"
)

// The fmt- and binary.Write-based writers the chunk encoder replaced,
// kept verbatim as the reference the encoder must match byte for byte.

func referenceWriteASCII(m *Mesh, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	fmt.Fprintf(bw, "%d 2 0 0\n", len(m.Points))
	for i, p := range m.Points {
		fmt.Fprintf(bw, "%d %.17g %.17g\n", i, p.X, p.Y)
	}
	fmt.Fprintf(bw, "%d 3 0\n", len(m.Triangles))
	for i, t := range m.Triangles {
		fmt.Fprintf(bw, "%d %d %d %d\n", i, t[0], t[1], t[2])
	}
	return bw.Flush()
}

func referenceWriteBinary(m *Mesh, w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	hdr := []uint32{binaryMagic, uint32(len(m.Points)), uint32(len(m.Triangles))}
	if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
		return err
	}
	coords := make([]float64, 0, 2*len(m.Points))
	for _, p := range m.Points {
		coords = append(coords, p.X, p.Y)
	}
	if err := binary.Write(bw, binary.LittleEndian, coords); err != nil {
		return err
	}
	idx := make([]int32, 0, 3*len(m.Triangles))
	for _, t := range m.Triangles {
		idx = append(idx, t[0], t[1], t[2])
	}
	if err := binary.Write(bw, binary.LittleEndian, idx); err != nil {
		return err
	}
	return bw.Flush()
}

func referenceWriteVTK(m *Mesh, w io.Writer) error {
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
	return bw.Flush()
}

// writerCases pairs each output format with its reference writer.
var writerCases = []struct {
	name      string
	reference func(*Mesh, io.Writer) error
}{
	{"ascii", referenceWriteASCII},
	{"binary", referenceWriteBinary},
	{"vtk", referenceWriteVTK},
}

// plainWriter hides a destination's AvailableBuffer, so the encoder
// writes through its own chunk.
type plainWriter struct{ w io.Writer }

func (p plainWriter) Write(b []byte) (int, error) { return p.w.Write(b) }

// checkWritersMatchReference writes m in every format, into a plain
// writer, an empty bytes.Buffer and one presized at Format.MaxBytes, and
// fails unless each output is the reference writer's bytes and, when
// the triangles index the points, within MaxBytes.
func checkWritersMatchReference(t *testing.T, m *Mesh) {
	t.Helper()
	for _, c := range writerCases {
		f, err := OutputFormat(c.name)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := c.reference(m, &want); err != nil {
			t.Fatal(err)
		}
		if validateTriangles(m) == nil && want.Len() > f.MaxBytes(m) {
			t.Errorf("%s: %d bytes written, MaxBytes says at most %d", c.name, want.Len(), f.MaxBytes(m))
		}
		var plain, empty bytes.Buffer
		presized := bytes.NewBuffer(make([]byte, 0, f.MaxBytes(m)))
		for dst, w := range map[string]io.Writer{"plain writer": plainWriter{&plain}, "bytes.Buffer": &empty, "presized bytes.Buffer": presized} {
			if err := f.Write(m, w); err != nil {
				t.Fatalf("%s into a %s: %v", c.name, dst, err)
			}
		}
		for dst, got := range map[string]*bytes.Buffer{"plain writer": &plain, "bytes.Buffer": &empty, "presized bytes.Buffer": presized} {
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s into a %s: %d bytes differ from the reference's %d\n got %q\nwant %q",
					c.name, dst, got.Len(), want.Len(), head(got.Bytes()), head(want.Bytes()))
			}
		}
	}
}

func head(b []byte) []byte { return b[:min(len(b), 200)] }

// TestWritersMatchReference: meshes of many chunks, and the float and
// index values fmt spells specially, write the reference's bytes, within
// MaxBytes where the indices are in range.
func TestWritersMatchReference(t *testing.T) {
	checkWritersMatchReference(t, &Mesh{})
	checkWritersMatchReference(t, randomMesh(5000))
	checkWritersMatchReference(t, gridMesh(71))
	var special []geom.Point
	for _, x := range specialFloats() {
		for _, y := range specialFloats() {
			special = append(special, geom.Pt(x, y))
		}
	}
	last := int32(len(special) - 1)
	checkWritersMatchReference(t, &Mesh{Points: special, Triangles: [][3]int32{{0, 1, 2}, {last, last - 1, 0}}})
	checkWritersMatchReference(t, &Mesh{Points: special, Triangles: [][3]int32{
		{0, 1, 2}, {-1, math.MinInt32, math.MaxInt32}, {-7, 0, 1 << 20},
	}})
}

// specialFloats are the values %.17g spells apart from plain digits, and
// the widest it spells.
func specialFloats() []float64 {
	return []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, -2.2250738585072014e-308, 1e21, 1e-5, 123456789.123,
	}
}

// fuzzMesh decodes data into a mesh of raw float64 bit patterns and raw
// int32 indices: the first byte picks the point count, 16 bytes follow
// for each point, and every 12 bytes after them make a triangle.
func fuzzMesh(data []byte) *Mesh {
	m := &Mesh{}
	if len(data) == 0 {
		return m
	}
	np := int(data[0])
	data = data[1:]
	le := binary.LittleEndian
	for ; np > 0 && len(data) >= 16; np-- {
		m.Points = append(m.Points, geom.Pt(math.Float64frombits(le.Uint64(data)), math.Float64frombits(le.Uint64(data[8:]))))
		data = data[16:]
	}
	for ; len(data) >= 12; data = data[12:] {
		m.Triangles = append(m.Triangles, [3]int32{int32(le.Uint32(data)), int32(le.Uint32(data[4:])), int32(le.Uint32(data[8:]))})
	}
	return m
}

func FuzzWritersMatchReference(f *testing.F) {
	le := binary.LittleEndian
	seed := []byte{byte(len(specialFloats()))}
	for _, x := range specialFloats() {
		seed = le.AppendUint64(seed, math.Float64bits(x))
		seed = le.AppendUint64(seed, math.Float64bits(-x))
	}
	for _, v := range []int32{0, 1, -1, math.MinInt32, math.MaxInt32, 12345, -6} {
		seed = le.AppendUint32(seed, uint32(v))
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWritersMatchReference(t, fuzzMesh(data))
	})
}

// TestWritersAllocateOneChunk: a writer allocates its chunk and nothing
// else, whatever the mesh's size, and rendering into a bytes.Buffer
// presized at MaxBytes allocates nothing at all.
func TestWritersAllocateOneChunk(t *testing.T) {
	m := gridMesh(71) // 10,082 triangles
	for _, c := range writerCases {
		f, _ := OutputFormat(c.name)
		if got := testing.AllocsPerRun(5, func() { _ = f.Write(m, io.Discard) }); got > 1 {
			t.Errorf("%s to io.Discard: %v allocations, want at most 1", c.name, got)
		}
		buf := bytes.NewBuffer(make([]byte, 0, f.MaxBytes(m)))
		if got := testing.AllocsPerRun(5, func() { buf.Reset(); _ = f.Write(m, buf) }); got > 0 {
			t.Errorf("%s into a presized bytes.Buffer: %v allocations, want none", c.name, got)
		}
	}
}

// failingWriter accepts ok writes, then fails every later one; a short
// writer reports success on fewer bytes than it was given.
type failingWriter struct {
	ok    int
	short bool
	calls int
}

var errWriteFailed = errors.New("write failed")

func (w *failingWriter) Write(b []byte) (int, error) {
	w.calls++
	if w.calls <= w.ok {
		return len(b), nil
	}
	if w.short {
		return len(b) / 2, nil
	}
	return 0, errWriteFailed
}

// TestWritersReturnTheFirstWriteError: a write that fails, first or
// later, fails the writer with that error, and a short write with
// io.ErrShortWrite; nothing is written after the failure.
func TestWritersReturnTheFirstWriteError(t *testing.T) {
	m := gridMesh(71)
	for _, c := range writerCases {
		f, _ := OutputFormat(c.name)
		for _, w := range []*failingWriter{{ok: 0}, {ok: 1}, {ok: 1, short: true}} {
			want := errWriteFailed
			if w.short {
				want = io.ErrShortWrite
			}
			if err := f.Write(m, w); !errors.Is(err, want) {
				t.Errorf("%s, failing after %d writes: %v, want %v", c.name, w.ok, err, want)
			}
			if w.calls != w.ok+1 {
				t.Errorf("%s, failing after %d writes: %d writes made, want %d", c.name, w.ok, w.calls, w.ok+1)
			}
		}
	}
}
