// Package mesh holds the final unstructured triangle mesh: merging of
// independently generated submeshes (Builder: by offset for an indexed
// submesh whose shared points are flagged, AddSubmesh; with
// coordinate-based deduplication of every corner for loose triangles,
// AddTriangle), the structural gate (Audit: orientation, conformity), the
// boundary and adjacency queries read off one half-edge table
// (HalfEdges), element quality statistics, and writers in Triangle's ASCII
// .node/.ele format and a compact binary format. The paper measures a
// 9-minute ASCII write for its 172.8M-triangle mesh and notes binary
// output is faster; the writer benchmarks reproduce that comparison at
// reduced scale.
package mesh

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"

	"pamg2d/internal/fileio"
	"pamg2d/internal/geom"
)

// Mesh is an indexed triangle mesh. Triangles are counter-clockwise.
type Mesh struct {
	Points    []geom.Point
	Triangles [][3]int32
}

// NumTriangles returns the element count.
func (m *Mesh) NumTriangles() int { return len(m.Triangles) }

// NumPoints returns the vertex count.
func (m *Mesh) NumPoints() int { return len(m.Points) }

// Builder accumulates submeshes, deduplicating vertices by exact
// coordinates (shared subdomain borders reproduce coordinates exactly, so
// exact comparison is the correct merge rule).
type Builder struct {
	mesh Mesh
	// index holds the interned points: those AddPoint added, the ones
	// AddSubmesh was told are shared, and those declared with Share.
	index map[geom.Point]int32
	// seen suppresses exact duplicate triangles (a triangle kept by two
	// region owners would corrupt conformity); it holds every triangle
	// whose corners are all interned.
	seen map[[3]int32]bool
	// remap and interned are AddSubmesh's per-call scratch: a submesh
	// point's global index, and whether it went through index.
	remap    []int32
	interned []bool
}

// NewBuilder returns an empty mesh builder.
func NewBuilder() *Builder {
	return &Builder{index: make(map[geom.Point]int32), seen: make(map[[3]int32]bool)}
}

// AddPoint interns a vertex and returns its index.
func (b *Builder) AddPoint(p geom.Point) int32 {
	if i, ok := b.index[p]; ok {
		return i
	}
	i := int32(len(b.mesh.Points))
	b.mesh.Points = append(b.mesh.Points, p)
	b.index[p] = i
	return i
}

// AddTriangle interns the three corners and appends the triangle unless an
// identical one was already added. Degenerate (repeated-vertex) triangles
// are dropped.
func (b *Builder) AddTriangle(p0, p1, p2 geom.Point) {
	i0 := b.AddPoint(p0)
	i1 := b.AddPoint(p1)
	i2 := b.AddPoint(p2)
	if i0 == i1 || i1 == i2 || i0 == i2 {
		return
	}
	key := canonicalTri(i0, i1, i2)
	if b.seen[key] {
		return
	}
	b.seen[key] = true
	b.mesh.Triangles = append(b.mesh.Triangles, [3]int32{i0, i1, i2})
}

// Reserve makes room for that many more points and triangles, so a caller
// that knows what it is about to add pays for one allocation of each.
func (b *Builder) Reserve(points, triangles int) {
	b.mesh.Points = slices.Grow(b.mesh.Points, points)
	b.mesh.Triangles = slices.Grow(b.mesh.Triangles, triangles)
}

// AddSubmesh adds an indexed submesh: its points, the ascending indices of
// those that other submeshes may also hold (shared), and its triangles as
// index triples into pts. It builds the mesh AddTriangle would build from
// the same triangles in the same order, provided pts lists the points in
// order of first appearance in tris, without the map work for what is
// private to the submesh: shared points are interned by coordinates, every
// other point is appended without a lookup — so it must coincide with no
// point of any other submesh — and only a triangle whose three corners are
// all shared, the only kind two submeshes can both hold, is checked
// against the triangles already added. A point an earlier submesh held
// privately must be declared with Share before a later submesh shares it.
// Every index must be in range. It returns each submesh point's index in
// the mesh, valid until the next call.
func (b *Builder) AddSubmesh(pts []geom.Point, shared []int32, tris [][3]int32) []int32 {
	if len(pts) > len(b.remap) {
		b.remap = make([]int32, len(pts))
		b.interned = make([]bool, len(pts))
	}
	for i, p := range pts {
		b.interned[i] = len(shared) > 0 && int(shared[0]) == i
		if b.interned[i] {
			shared = shared[1:]
			b.remap[i] = b.AddPoint(p)
			continue
		}
		b.remap[i] = int32(len(b.mesh.Points))
		b.mesh.Points = append(b.mesh.Points, p)
	}
	for _, t := range tris {
		i0, i1, i2 := b.remap[t[0]], b.remap[t[1]], b.remap[t[2]]
		if i0 == i1 || i1 == i2 || i0 == i2 {
			continue
		}
		if b.interned[t[0]] && b.interned[t[1]] && b.interned[t[2]] {
			key := canonicalTri(i0, i1, i2)
			if b.seen[key] {
				continue
			}
			b.seen[key] = true
		}
		b.mesh.Triangles = append(b.mesh.Triangles, [3]int32{i0, i1, i2})
	}
	return b.remap[:len(pts)]
}

// Share declares points already added, by index, as points a later
// submesh may also hold. Each is interned by coordinates, as if it had
// been flagged shared when it was added, and every triangle already added
// whose three corners are all declared enters the duplicate-triangle set,
// so a later submesh that repeats it adds nothing — the mesh AddTriangle
// builds. Every index must be in range.
func (b *Builder) Share(idx []int32) {
	declared := make([]bool, len(b.mesh.Points))
	for _, i := range idx {
		declared[i] = true
		p := b.mesh.Points[i]
		if _, ok := b.index[p]; !ok {
			b.index[p] = i
		}
	}
	for _, t := range b.mesh.Triangles {
		if declared[t[0]] && declared[t[1]] && declared[t[2]] {
			b.seen[canonicalTri(t[0], t[1], t[2])] = true
		}
	}
}

func canonicalTri(a, b, c int32) [3]int32 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]int32{a, b, c}
}

// Mesh returns the accumulated mesh.
func (b *Builder) Mesh() *Mesh { return &b.mesh }

// Area returns the total mesh area.
func (m *Mesh) Area() float64 {
	var sum float64
	for _, t := range m.Triangles {
		sum += math.Abs(geom.TriangleArea(m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]))
	}
	return sum
}

// TriangleSetHash identifies the mesh by its triangles alone: the sha256,
// in hex, of every triangle as the coordinates of its three corners,
// rotated to start at its least corner (by X, then Y) so orientation is
// kept, in sorted order. Two meshes that list the same triangles in any
// point order, triangle order or starting corner hash alike; the bytes of
// WriteBinary tell those apart.
func (m *Mesh) TriangleSetHash() string {
	tris := make([][6]float64, len(m.Triangles))
	for i, t := range m.Triangles {
		k := 0
		for j := 1; j < 3; j++ {
			if a, b := m.Points[t[j]], m.Points[t[k]]; a.X < b.X || a.X == b.X && a.Y < b.Y {
				k = j
			}
		}
		for j := range 3 {
			p := m.Points[t[(k+j)%3]]
			tris[i][2*j], tris[i][2*j+1] = p.X, p.Y
		}
	}
	slices.SortFunc(tris, func(a, b [6]float64) int { return slices.Compare(a[:], b[:]) })
	h := sha256.New()
	var rec [48]byte
	for _, t := range tris {
		for j, v := range t {
			binary.LittleEndian.PutUint64(rec[8*j:], math.Float64bits(v))
		}
		h.Write(rec[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// QualityStats summarizes element quality.
type QualityStats struct {
	MinAngleDeg    float64
	MaxAngleDeg    float64
	MaxAspectRatio float64
	MaxRadiusEdge  float64
	MeanArea       float64
	MinArea        float64
	MaxArea        float64
	AngleHistogram [18]int // 10-degree buckets of minimum angles
	TriangleCount  int
}

// Quality computes the mesh quality statistics.
func (m *Mesh) Quality() QualityStats {
	st := QualityStats{MinAngleDeg: 180, MinArea: math.Inf(1)}
	var areaSum float64
	for _, t := range m.Triangles {
		a, b, c := m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]
		minA := geom.MinAngle(a, b, c) * 180 / math.Pi
		if minA < st.MinAngleDeg {
			st.MinAngleDeg = minA
		}
		maxA := maxAngleDeg(a, b, c)
		if maxA > st.MaxAngleDeg {
			st.MaxAngleDeg = maxA
		}
		if ar := geom.AspectRatio(a, b, c); ar > st.MaxAspectRatio {
			st.MaxAspectRatio = ar
		}
		if re := geom.CircumradiusToShortestEdge(a, b, c); re > st.MaxRadiusEdge {
			st.MaxRadiusEdge = re
		}
		area := math.Abs(geom.TriangleArea(a, b, c))
		areaSum += area
		if area < st.MinArea {
			st.MinArea = area
		}
		if area > st.MaxArea {
			st.MaxArea = area
		}
		bucket := int(minA / 10)
		if bucket > 17 {
			bucket = 17
		}
		st.AngleHistogram[bucket]++
	}
	st.TriangleCount = len(m.Triangles)
	if st.TriangleCount > 0 {
		st.MeanArea = areaSum / float64(st.TriangleCount)
	}
	return st
}

func maxAngleDeg(a, b, c geom.Point) float64 {
	ang := func(p, q, r geom.Point) float64 { return q.Sub(p).AngleBetween(r.Sub(p)) }
	m := ang(a, b, c)
	if x := ang(b, c, a); x > m {
		m = x
	}
	if x := ang(c, a, b); x > m {
		m = x
	}
	return m * 180 / math.Pi
}

// WriteASCII writes the mesh in Triangle's .node/.ele text format
// concatenated into one stream: a node section followed by an element
// section. This is the slow, portable output path the paper measured at 9
// minutes for 172.8M triangles.
func (m *Mesh) WriteASCII(w io.Writer) error {
	e := fileio.NewEncoder(w, asciiBytes(m))
	e.Ints(len(m.Points), 2, 0, 0)
	e.Line()
	for i, p := range m.Points {
		e.Ints(i)
		e.Floats(p.X, p.Y)
		e.Line()
	}
	e.Ints(len(m.Triangles), 3, 0)
	e.Line()
	for i, t := range m.Triangles {
		e.Ints(i, int(t[0]), int(t[1]), int(t[2]))
		e.Line()
	}
	return e.Flush()
}

// binaryMagic identifies the binary mesh format.
const binaryMagic = uint32(0x504d3244) // "PM2D"

// WriteBinary writes the mesh in a compact little-endian binary format:
// magic, counts, raw coordinate and index arrays. The fast output path for
// flow solvers that accept binary input.
func (m *Mesh) WriteBinary(w io.Writer) error {
	e := fileio.NewEncoder(w, binaryBytes(m))
	e.U32(binaryMagic)
	e.U32(uint32(len(m.Points)))
	e.U32(uint32(len(m.Triangles)))
	for _, p := range m.Points {
		e.F64(p.X)
		e.F64(p.Y)
		e.Record()
	}
	for _, t := range m.Triangles {
		e.U32(uint32(t[0]))
		e.U32(uint32(t[1]))
		e.U32(uint32(t[2]))
		e.Record()
	}
	return e.Flush()
}

// maxCount caps the point/triangle counts a reader accepts from a header;
// int32 element indexing bounds the real range anyway.
const maxCount = 1 << 30

// ReadBinary reads a mesh written by WriteBinary, validating the header
// counts and every element's vertex references (an out-of-range reference
// returns an *ElemRefError) so a corrupted file fails the read instead of
// panicking a consumer.
func ReadBinary(r io.Reader) (*Mesh, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	var hdr [3]uint32
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr[0] != binaryMagic {
		return nil, fmt.Errorf("mesh: bad magic %#x", hdr[0])
	}
	if hdr[1] > maxCount || hdr[2] > maxCount {
		return nil, fmt.Errorf("mesh: header counts %d points / %d triangles exceed the format limit", hdr[1], hdr[2])
	}
	np, nt := int(hdr[1]), int(hdr[2])
	le := binary.LittleEndian
	buf := make([]byte, 16*min(max(np, nt), fileio.MaxPrealloc))
	m := &Mesh{
		Points:    make([]geom.Point, 0, min(np, fileio.MaxPrealloc)),
		Triangles: make([][3]int32, 0, min(nt, fileio.MaxPrealloc)),
	}
	for len(m.Points) < np {
		b := buf[:16*min(np-len(m.Points), fileio.MaxPrealloc)]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[16:] {
			m.Points = append(m.Points, geom.Pt(math.Float64frombits(le.Uint64(b)), math.Float64frombits(le.Uint64(b[8:]))))
		}
	}
	for len(m.Triangles) < nt {
		b := buf[:12*min(nt-len(m.Triangles), fileio.MaxPrealloc)]
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, err
		}
		for ; len(b) > 0; b = b[12:] {
			m.Triangles = append(m.Triangles, [3]int32{int32(le.Uint32(b)), int32(le.Uint32(b[4:])), int32(le.Uint32(b[8:]))})
		}
	}
	if err := validateTriangles(m); err != nil {
		return nil, err
	}
	return m, nil
}
