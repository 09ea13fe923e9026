// Package mesh holds the final unstructured triangle mesh: merging of
// independently generated submeshes (Builder: by offset for an indexed
// submesh whose shared points are flagged, AddSubmesh; with
// coordinate-based deduplication of every corner for loose triangles,
// AddTriangle), structural audits (orientation, conformity) and the
// boundary and adjacency queries, all read off one half-edge table
// (HalfEdges), element quality statistics, and writers in Triangle's ASCII
// .node/.ele format and a compact binary format. The paper measures a
// 9-minute ASCII write for its 172.8M-triangle mesh and notes binary
// output is faster; the writer benchmarks reproduce that comparison at
// reduced scale.
package mesh

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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
	mesh  Mesh
	index map[geom.Point]int32
	// seen suppresses exact duplicate triangles (a triangle kept by two
	// region owners would corrupt conformity).
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
// other point is appended as new — so it must coincide with no point of
// any other submesh — and only a triangle whose three corners are all
// shared, the only kind two submeshes can both hold, is checked against
// the triangles already added. Every index must be in range.
func (b *Builder) AddSubmesh(pts []geom.Point, shared []int32, tris [][3]int32) {
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

// binaryMagic identifies the binary mesh format.
const binaryMagic = uint32(0x504d3244) // "PM2D"

// WriteBinary writes the mesh in a compact little-endian binary format:
// magic, counts, raw coordinate and index arrays. The fast output path for
// flow solvers that accept binary input.
func (m *Mesh) WriteBinary(w io.Writer) error {
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

// maxBinaryCount caps the header point/triangle counts ReadBinary accepts.
// A corrupted header would otherwise drive multi-gigabyte allocations
// before the short read is even noticed; int32 element indexing bounds the
// real range anyway.
const maxBinaryCount = 1 << 30

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
	if hdr[1] > maxBinaryCount || hdr[2] > maxBinaryCount {
		return nil, fmt.Errorf("mesh: header counts %d points / %d triangles exceed the format limit", hdr[1], hdr[2])
	}
	np, nt := int(hdr[1]), int(hdr[2])
	coords := make([]float64, 2*np)
	if err := binary.Read(br, binary.LittleEndian, coords); err != nil {
		return nil, err
	}
	idx := make([]int32, 3*nt)
	if err := binary.Read(br, binary.LittleEndian, idx); err != nil {
		return nil, err
	}
	m := &Mesh{Points: make([]geom.Point, np), Triangles: make([][3]int32, nt)}
	for i := 0; i < np; i++ {
		m.Points[i] = geom.Pt(coords[2*i], coords[2*i+1])
	}
	for i := 0; i < nt; i++ {
		m.Triangles[i] = [3]int32{idx[3*i], idx[3*i+1], idx[3*i+2]}
	}
	if err := validateTriangles(m); err != nil {
		return nil, err
	}
	return m, nil
}
