package mesh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"pamg2d/internal/geom"
)

func TestASCIIRoundTrip(t *testing.T) {
	m := randomMesh(300)
	var buf bytes.Buffer
	if err := m.WriteASCII(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadASCII(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumPoints() != m.NumPoints() || got.NumTriangles() != m.NumTriangles() {
		t.Fatalf("sizes: %d/%d vs %d/%d", got.NumPoints(), got.NumTriangles(), m.NumPoints(), m.NumTriangles())
	}
	for i := range m.Points {
		if got.Points[i] != m.Points[i] {
			t.Fatalf("point %d: %v != %v (coordinates must round-trip exactly via %%.17g)", i, got.Points[i], m.Points[i])
		}
	}
	for i := range m.Triangles {
		if got.Triangles[i] != m.Triangles[i] {
			t.Fatalf("triangle %d differs", i)
		}
	}
}

func TestReadASCIIErrors(t *testing.T) {
	cases := []struct {
		name, data string
	}{
		{"empty", ""},
		{"bad dimension", "1 3 0 0\n0 1 2 3\n"},
		{"node index out of range", "1 2 0 0\n5 1 2\n"},
		{"truncated nodes", "2 2 0 0\n0 1 2\n"},
		{"bad element corner count", "1 2 0 0\n0 1 2\n1 4 0\n0 0 0 0 0\n"},
		{"element references missing node", "1 2 0 0\n0 1 2\n1 3 0\n0 0 1 2\n"},
	}
	for _, c := range cases {
		if _, err := ReadASCII(strings.NewReader(c.data)); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
}

// TestReadASCIIElemRefTyped: an element referencing a missing node must
// surface as the typed *ElemRefError with element and vertex attribution.
func TestReadASCIIElemRefTyped(t *testing.T) {
	_, err := ReadASCII(strings.NewReader("1 2 0 0\n0 1 2\n1 3 0\n0 0 1 2\n"))
	var re *ElemRefError
	if !errors.As(err, &re) {
		t.Fatalf("error is %T (%v), want *ElemRefError", err, err)
	}
	if re.Elem != 0 || re.Vertex != 1 || re.NumPoints != 1 {
		t.Errorf("ElemRefError = %+v, want element 0 vertex 1 of 1 points", re)
	}
}

// TestReadBinaryValidation: the binary reader must reject out-of-range
// element references (typed error, no panic downstream) and absurd header
// counts instead of attempting the allocation.
func TestReadBinaryValidation(t *testing.T) {
	m := unitSquareMesh()
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Corrupt one vertex index of element 1 to point past the point array.
	// Layout: 12-byte header, 2*np float64 coords, then int32 indices.
	bad := append([]byte(nil), good...)
	idxOff := 12 + 16*m.NumPoints() + 4*(3*1+2)
	binary.LittleEndian.PutUint32(bad[idxOff:], uint32(int32(m.NumPoints()+9)))
	_, err := ReadBinary(bytes.NewReader(bad))
	var re *ElemRefError
	if !errors.As(err, &re) {
		t.Fatalf("corrupted index error is %T (%v), want *ElemRefError", err, err)
	}
	if re.Elem != 1 || re.Vertex != int64(m.NumPoints()+9) {
		t.Errorf("ElemRefError = %+v, want element 1 vertex %d", re, m.NumPoints()+9)
	}

	// Corrupt the point count in the header beyond the format limit.
	bad = append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(bad[4:], 1<<31)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil || errors.As(err, &re) {
		t.Errorf("absurd header count: err = %v, want a header error", err)
	}

	// The untouched stream still reads back.
	got, err := ReadBinary(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTriangles() != m.NumTriangles() {
		t.Errorf("round trip lost triangles: %d vs %d", got.NumTriangles(), m.NumTriangles())
	}
}

// TestReadASCIIRejectsNegativeCounts: a negative node or element count is
// an error, not a makeslice panic.
func TestReadASCIIRejectsNegativeCounts(t *testing.T) {
	for _, data := range []string{
		"-1 2 0 0\n",
		"1 2 0 0\n0 1 2\n-1 3 0\n",
	} {
		if m, err := ReadASCII(strings.NewReader(data)); err == nil {
			t.Errorf("%q: read %+v, want an error", data, m)
		}
	}
}

// TestReadersAllocateWhatTheInputHolds: a header claiming millions of
// records in front of a few bytes costs the reader kilobytes, not the
// claimed arrays.
func TestReadersAllocateWhatTheInputHolds(t *testing.T) {
	const claim = 1 << 22
	bin := binary.LittleEndian.AppendUint32(nil, binaryMagic)
	bin = binary.LittleEndian.AppendUint32(bin, claim)
	bin = binary.LittleEndian.AppendUint32(bin, claim)
	ascii := fmt.Sprintf("%d 2 0 0\n0 1 2\n", claim)
	for _, c := range []struct {
		name string
		data []byte
		read func(io.Reader) (*Mesh, error)
	}{
		{"binary", bin, ReadBinary},
		{"ascii", []byte(ascii), ReadASCII},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := c.read(bytes.NewReader(c.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: a truncated input read without error", c.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
			t.Errorf("%s: reading %d bytes allocated %d bytes", c.name, len(c.data), got)
		}
	}
	// A valid mesh four times as long costs a few allocations more, not
	// a few per record.
	allocs := func(m *Mesh) float64 {
		var buf bytes.Buffer
		if err := m.WriteASCII(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := ReadASCII(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if short, long := allocs(gridMesh(20)), allocs(gridMesh(40)); long > short+4 {
		t.Errorf("ascii: %v allocations reading 800 triangles, %v reading 3,200", short, long)
	}
}

// sameMesh reports whether two meshes hold the same points, bit for bit,
// and the same triangles.
func sameMesh(a, b *Mesh) bool {
	if len(a.Points) != len(b.Points) || !slices.Equal(a.Triangles, b.Triangles) {
		return false
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if math.Float64bits(p.X) != math.Float64bits(q.X) || math.Float64bits(p.Y) != math.Float64bits(q.Y) {
			return false
		}
	}
	return true
}

// fuzzSeeds are small meshes, one of them of the floats %.17g spells
// apart from digits, through every writer, plus the inputs that once
// panicked or over-allocated a reader.
func fuzzSeeds(f *testing.F, more ...[]byte) {
	special := &Mesh{
		Points:    []geom.Point{geom.Pt(math.NaN(), math.Inf(1)), geom.Pt(math.Copysign(0, -1), math.Inf(-1)), geom.Pt(5e-324, -1e300)},
		Triangles: [][3]int32{{0, 1, 2}},
	}
	for _, m := range []*Mesh{unitSquareMesh(), randomMesh(4), {}, special} {
		for _, c := range writerCases {
			format, _ := OutputFormat(c.name)
			var buf bytes.Buffer
			if err := format.Write(m, &buf); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	for _, b := range more {
		f.Add(b)
	}
}

// fuzzRoundTrip is the readers' fuzz property: no panic, and a mesh read
// successfully writes and reads back to the same mesh.
func fuzzRoundTrip(t *testing.T, data []byte, read func(io.Reader) (*Mesh, error), write func(*Mesh, io.Writer) error) {
	m, err := read(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := write(m, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := read(&buf)
	if err != nil {
		t.Fatalf("a mesh read from %q does not read back: %v", data, err)
	}
	if !sameMesh(m, back) {
		t.Fatalf("a mesh read from %q reads back as a different mesh", data)
	}
}

// FuzzReadASCII: the round trip, and the fmt reference's verdict: a
// mesh ReadASCII reads is one the reference reads, bit for bit, from the
// same text without its '#' lines.
func FuzzReadASCII(f *testing.F) {
	fuzzSeeds(f,
		[]byte("-1 2 0 0\n"), []byte("1 2 0 0\n0 1 2\n-1 3 0\n"), []byte("1000000000 2 0 0\n0 1 2\n"),
		[]byte("2 2 0 0\n1 nan -inf\n1 2 3\n2 3 0\n1 0 0 1\n1 1 1 0\n"),
		[]byte("# c\n1 2 0 0\n  # c\n\n0 0x1p-2 -Inf\r\n1 3 0\n0 0 0 0\n"),
		[]byte("1 2 0 0\n0 1.5p3 infinity\n1 3 0\n00 0 0 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, ReadASCII, (*Mesh).WriteASCII)
		m, err := ReadASCII(bytes.NewReader(data))
		if err != nil {
			return
		}
		ref, err := referenceReadASCII(bytes.NewReader(withoutComments(data)))
		if err != nil {
			t.Fatalf("ReadASCII reads %q, the fmt reference refuses it: %v", data, err)
		}
		if !sameMesh(m, ref) {
			t.Fatalf("ReadASCII and the fmt reference read %q as different meshes", data)
		}
	})
}

func FuzzReadBinary(f *testing.F) {
	huge := binary.LittleEndian.AppendUint32(nil, binaryMagic)
	huge = binary.LittleEndian.AppendUint32(huge, maxCount)
	huge = binary.LittleEndian.AppendUint32(huge, maxCount)
	fuzzSeeds(f, huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRoundTrip(t, data, ReadBinary, (*Mesh).WriteBinary)
	})
}

func TestWriteVTK(t *testing.T) {
	m := unitSquareMesh()
	var buf bytes.Buffer
	if err := m.WriteVTK(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"POINTS 4 double", "CELLS 2 8", "CELL_TYPES 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("VTK output missing %q", want)
		}
	}
}

// TestOutputFormat: each format name resolves to its writer and content
// type, and an unknown name is an error that names it.
func TestOutputFormat(t *testing.T) {
	m := unitSquareMesh()
	for _, c := range []struct {
		name, contentType string
		write             func(*Mesh, io.Writer) error
	}{
		{"ascii", "text/plain; charset=utf-8", (*Mesh).WriteASCII},
		{"binary", "application/octet-stream", (*Mesh).WriteBinary},
		{"vtk", "text/plain; charset=utf-8", (*Mesh).WriteVTK},
	} {
		f, err := OutputFormat(c.name)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var got, want bytes.Buffer
		if err := f.Write(m, &got); err != nil {
			t.Fatal(err)
		}
		if err := c.write(m, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || f.ContentType != c.contentType {
			t.Errorf("%s: wrong writer or content type %q", c.name, f.ContentType)
		}
	}
	if _, err := OutputFormat("stl"); err == nil || !strings.Contains(err.Error(), `"stl"`) {
		t.Errorf("unknown format: err = %v, want one naming it", err)
	}
}

// TestReadFromPipe: Read tells the two formats apart on input that cannot
// seek, and an empty or 1-3-byte input is an error, not a panic.
func TestReadFromPipe(t *testing.T) {
	m := randomMesh(50)
	for _, write := range []func(*Mesh, io.Writer) error{(*Mesh).WriteASCII, (*Mesh).WriteBinary} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan error, 1)
		go func() {
			err := write(m, w)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			written <- err
		}()
		got, err := Read(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-written; err != nil {
			t.Fatal(err)
		}
		if !sameMesh(got, m) {
			t.Error("the mesh read from a pipe differs from the one written")
		}
	}
	var bin bytes.Buffer
	if err := m.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 4; n++ {
		for _, data := range [][]byte{bin.Bytes()[:n], []byte("123")[:n]} {
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Errorf("%q: read without error", data)
			}
		}
	}
}
