package adapt

import (
	"fmt"

	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
	"pamg2d/internal/metric"
)

// triRec is one editable triangle: CCW vertex indices and the neighbor
// across each edge e (the edge running v[e] → v[(e+1)%3]; -1 = domain
// boundary). Dead records live in the free list until a split reuses
// them.
type triRec struct {
	v    [3]int32
	n    [3]int32
	dead bool
}

// topo is the editable half-edge-free mesh representation the cavity
// operators work on: triangle soup with explicit adjacency, a
// vertex→incident-triangle map, boundary-vertex flags, and a free list
// of dead triangle slots. It is built once per Adapt call from an
// immutable mesh.Mesh and extracted back at the end.
//
// lmet is the log cache: quality evaluation needs the matrix logarithm of
// every vertex tensor of every triangle it looks at, in every pass, while
// a tensor changes only where met is written — addVertex (a split's new
// vertex), commitCollapse (a midpoint collapse moves keep) and
// commitSmooth. Those three write lmet[v] = met[v].Log() beside the met
// write; the committing worker owns v by the vertex-claim rule, so the
// second write is as race-free as the first. Everything that reads a
// tensor's logarithm for quality reads lmet.
type topo struct {
	pts  []geom.Point
	met  []metric.M // per-vertex metric, grown alongside pts
	lmet []metric.M // met[v].Log(), bit for bit
	vb   []bool     // vertex lies on the domain boundary
	vtri []int32    // some live triangle incident to the vertex, -1 when dead
	tri  []triRec
	free []int32
	live int
}

// maxRing bounds ring walks; a walk longer than this means corrupted
// adjacency, not a real vertex star.
const maxRing = 1024

func newTopo(m *mesh.Mesh, f metric.Field) (*topo, error) {
	if len(f) != len(m.Points) {
		return nil, fmt.Errorf("adapt: %d metric tensors for %d vertices", len(f), len(m.Points))
	}
	if err := m.Audit(); err != nil {
		return nil, fmt.Errorf("adapt: input mesh: %w", err)
	}
	adj := m.Adjacency()
	tp := &topo{
		pts:  append([]geom.Point(nil), m.Points...),
		met:  append(metric.Field(nil), f...),
		lmet: make([]metric.M, len(f)),
		vb:   make([]bool, len(m.Points)),
		vtri: make([]int32, len(m.Points)),
		tri:  make([]triRec, len(m.Triangles)),
		live: len(m.Triangles),
	}
	for i := range tp.vtri {
		tp.vtri[i] = -1
		tp.lmet[i] = tp.met[i].Log()
	}
	for i, t := range m.Triangles {
		tp.tri[i] = triRec{v: t, n: adj[i]}
		for e := 0; e < 3; e++ {
			tp.vtri[t[e]] = int32(i)
			if adj[i][e] < 0 {
				tp.vb[t[e]] = true
				tp.vb[t[(e+1)%3]] = true
			}
		}
	}
	for v, t := range tp.vtri {
		if t < 0 {
			return nil, fmt.Errorf("adapt: vertex %d has no incident triangle", v)
		}
	}
	return tp, nil
}

// mesh extracts the live triangles into a fresh compact mesh, dropping
// dead triangle slots and unreferenced vertices. Vertex order is
// preserved (surviving original vertices first, then insertion order),
// so extraction is deterministic.
func (tp *topo) mesh() *mesh.Mesh {
	remap := make([]int32, len(tp.pts))
	for i := range remap {
		remap[i] = -1
	}
	out := &mesh.Mesh{}
	used := 0
	for i := range tp.tri {
		if tp.tri[i].dead {
			continue
		}
		used++
		for _, v := range tp.tri[i].v {
			if remap[v] < 0 {
				remap[v] = int32(len(out.Points))
				out.Points = append(out.Points, tp.pts[v])
			}
		}
	}
	out.Triangles = make([][3]int32, 0, used)
	for i := range tp.tri {
		if tp.tri[i].dead {
			continue
		}
		t := tp.tri[i].v
		out.Triangles = append(out.Triangles, [3]int32{remap[t[0]], remap[t[1]], remap[t[2]]})
	}
	return out
}

// find returns the index of vertex v in triangle t, or -1.
func (tp *topo) find(t, v int32) int {
	for i := 0; i < 3; i++ {
		if tp.tri[t].v[i] == v {
			return i
		}
	}
	return -1
}

// setNeighbor rewrites the neighbor pointer of t that references old to
// new. Missing old is a topology corruption; callers guarantee it.
func (tp *topo) setNeighbor(t, old, new int32) {
	if t < 0 {
		return
	}
	r := &tp.tri[t]
	for e := 0; e < 3; e++ {
		if r.n[e] == old {
			r.n[e] = new
			return
		}
	}
}

// ring collects the triangles around vertex v into out, in CCW order.
// For boundary vertices the fan is anchored at the clockwise-most
// triangle, which makes the order unique; interior rings are rotated so
// the smallest triangle index comes first, so the order is independent
// of which incident triangle vtri happens to hold (and therefore of
// commit scheduling in earlier passes). The second result is false on a
// corrupted or oversized star.
func (tp *topo) ring(v int32, out []int32) ([]int32, bool) {
	out = out[:0]
	t0 := tp.vtri[v]
	if t0 < 0 || tp.tri[t0].dead {
		return out, false
	}
	// Rotate clockwise to the boundary (or all the way around).
	anchor := t0
	interior := false
	for i := 0; ; i++ {
		if i >= maxRing {
			return out, false
		}
		ii := tp.find(anchor, v)
		if ii < 0 {
			return out, false
		}
		prev := tp.tri[anchor].n[ii] // across edge (v, next): the CW neighbor
		if prev < 0 {
			break
		}
		if prev == t0 {
			anchor = t0
			interior = true
			break
		}
		anchor = prev
	}
	// Collect counterclockwise from the anchor.
	cur := anchor
	for {
		if len(out) >= maxRing {
			return out, false
		}
		out = append(out, cur)
		ii := tp.find(cur, v)
		if ii < 0 {
			return out, false
		}
		next := tp.tri[cur].n[(ii+2)%3] // across edge (prev, v): the CCW neighbor
		if next < 0 || next == anchor {
			break
		}
		cur = next
	}
	if interior && len(out) > 1 {
		// Canonical start: smallest triangle index.
		lo := 0
		for i := 1; i < len(out); i++ {
			if out[i] < out[lo] {
				lo = i
			}
		}
		if lo > 0 {
			rotated := append(out[len(out):], out[lo:]...)
			rotated = append(rotated, out[:lo]...)
			copy(out, rotated)
		}
	}
	return out, interior
}

// addVertex appends a vertex and returns its index.
func (tp *topo) addVertex(p geom.Point, m metric.M, boundary bool) int32 {
	v := int32(len(tp.pts))
	tp.pts = append(tp.pts, p)
	tp.met = append(tp.met, m)
	tp.lmet = append(tp.lmet, m.Log())
	tp.vb = append(tp.vb, boundary)
	tp.vtri = append(tp.vtri, -1)
	return v
}

// allocSlot returns a dead slot to reuse or appends a fresh one. The
// slot is returned still marked dead; the commit writing it flips it
// live.
func (tp *topo) allocSlot() int32 {
	tp.live++
	if n := len(tp.free); n > 0 {
		s := tp.free[n-1]
		tp.free = tp.free[:n-1]
		return s
	}
	tp.tri = append(tp.tri, triRec{dead: true})
	return int32(len(tp.tri) - 1)
}

// freeSlot marks a slot dead and recycles it. Only the sequential
// post-commit phase calls this.
func (tp *topo) freeSlot(s int32) {
	tp.tri[s].dead = true
	tp.live--
	tp.free = append(tp.free, s)
}

// edgeLen returns the metric length of the mesh edge p–q.
func (tp *topo) edgeLen(p, q int32) float64 {
	return metric.EdgeLen(tp.pts[p], tp.pts[q], tp.met[p], tp.met[q])
}

// triQuality returns the metric shape quality of triangle t.
func (tp *topo) triQuality(t int32) float64 {
	v := tp.tri[t].v
	return metric.TriQualityLog(tp.pts[v[0]], tp.pts[v[1]], tp.pts[v[2]],
		tp.met[v[0]], tp.met[v[1]], tp.met[v[2]],
		tp.lmet[v[0]], tp.lmet[v[1]], tp.lmet[v[2]])
}
