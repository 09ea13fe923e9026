package mesh

import (
	"fmt"
	"slices"

	"pamg2d/internal/geom"
)

// HalfEdges is the mesh's directed edges grouped by origin vertex: a
// counting sort puts vertex v's outgoing half-edges in
// key[start[v]:start[v+1]], each bucket ordered by destination and then
// triangle. BoundaryEdges, Adjacency and internal/audit read this one
// table, two flat allocations whatever the vertex degrees are; Audit
// shares only its counting pass (originCursors).
type HalfEdges struct {
	start []int32
	key   []HalfEdge
}

// HalfEdge is edge Edge of triangle Triangle, the one from its vertex Edge
// to vertex Edge+1 mod 3, which runs to vertex To. It is stored as
// dst<<32 | 3*triangle+edge, so in a bucket the half-edges to one
// destination are adjacent and ordered by triangle.
type HalfEdge uint64

func (k HalfEdge) To() int32     { return int32(k >> 32) }
func (k HalfEdge) Triangle() int { return int(uint32(k) / 3) }
func (k HalfEdge) Edge() int     { return int(uint32(k) % 3) }

// HalfEdges builds the table. Triangles that reference a vertex outside
// Points contribute nothing.
func (m *Mesh) HalfEdges() HalfEdges {
	np := len(m.Points)
	start := m.originCursors(make([]int32, np+2))
	key := make([]HalfEdge, start[np+1])
	for i, t := range m.Triangles {
		if !m.ValidRefs(t) {
			continue
		}
		for e := 0; e < 3; e++ {
			u := t[e]
			key[start[u+1]] = HalfEdge(t[(e+1)%3])<<32 | HalfEdge(3*i+e)
			start[u+1]++
		}
	}
	start = start[:np+1]
	for v := 0; v < np; v++ {
		slices.Sort(key[start[v]:start[v+1]])
	}
	return HalfEdges{start: start, key: key}
}

// originCursors is the counting half of the count-and-scatter by origin.
// start is zeroed, of length len(Points)+2. Each triangle within Points
// counts its three corners two slots up, so that after the prefix sum
// start[v+1] is origin v's write cursor and start[len(Points)+1] the
// half-edge count; once the caller has scattered every half-edge through
// the cursors, start[:len(Points)+1] bounds the buckets.
func (m *Mesh) originCursors(start []int32) []int32 {
	for _, t := range m.Triangles {
		if m.ValidRefs(t) {
			start[t[0]+2]++
			start[t[1]+2]++
			start[t[2]+2]++
		}
	}
	for v := 0; v+2 < len(start); v++ {
		start[v+2] += start[v+1]
	}
	return start
}

// ValidRefs reports whether all three vertices of t index Points.
func (m *Mesh) ValidRefs(t [3]int32) bool {
	np := uint32(len(m.Points))
	return uint32(t[0]) < np && uint32(t[1]) < np && uint32(t[2]) < np
}

// From returns the half-edges leaving vertex u, ordered by destination and
// then triangle.
func (h HalfEdges) From(u int32) []HalfEdge { return h.key[h.start[u]:h.start[u+1]] }

// Find returns the half-edges u->v, ordered by triangle; none when no
// triangle has that edge.
func (h HalfEdges) Find(u, v int32) []HalfEdge {
	hi := h.last(u, v) + 1
	lo := hi
	for lo > int(h.start[u]) && h.key[lo-1].To() == v {
		lo--
	}
	return h.key[lo:hi]
}

// last returns the position in key of the last half-edge u->v, or -1 when
// there is none.
func (h HalfEdges) last(u, v int32) int {
	// The first key at or above the lowest possible key to v+1; searched by
	// hand because slices.BinarySearch measured 10-15 % slower on
	// BoundaryEdges and Adjacency, whose time is this loop.
	lo, hi := int(h.start[u]), int(h.start[u+1])
	end := HalfEdge(uint32(v)+1) << 32
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.key[mid] < end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > int(h.start[u]) && h.key[lo-1].To() == v {
		return lo - 1
	}
	return -1
}

// Audit checks structural soundness: every triangle CCW and
// non-degenerate, and no directed edge used by two triangles — so every
// edge is shared by at most two triangles with opposite orientations
// (conformity: no T-junctions among the indexed vertices, no overlapping
// elements). It groups the half-edges' destinations by origin, unsorted,
// and a stamp per vertex finds a destination repeated within a group;
// only such a group is sorted, so the error names the least repeated
// destination of the least origin, as a scan of the sorted table would.
// The bucket bounds, the stamps and the destinations share one allocation.
func (m *Mesh) Audit() error {
	if err := validateTriangles(m); err != nil {
		return err
	}
	for i, t := range m.Triangles {
		if geom.Orient2DSign(m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]) <= 0 {
			return fmt.Errorf("mesh: triangle %d not CCW", i)
		}
	}
	np := len(m.Points)
	buf := make([]int32, 2*np+2+3*len(m.Triangles))
	start, stamp, dst := m.originCursors(buf[:np+2]), buf[np+2:2*np+2], buf[2*np+2:]
	for _, t := range m.Triangles {
		for e := 0; e < 3; e++ {
			u := t[e]
			dst[start[u+1]] = t[(e+1)%3]
			start[u+1]++
		}
	}
	for u := 0; u < np; u++ {
		bucket, mark := dst[start[u]:start[u+1]], int32(u)+1
		for _, v := range bucket {
			if stamp[v] != mark {
				stamp[v] = mark
				continue
			}
			slices.Sort(bucket)
			for k := 1; ; k++ {
				if v := bucket[k]; v == bucket[k-1] {
					return fmt.Errorf("mesh: directed edge (%d,%d) used twice; overlapping triangles", u, v)
				}
			}
		}
	}
	return nil
}

// BoundaryEdges returns the directed edges whose reverse belongs to no
// triangle, i.e. the mesh boundary, ordered by origin and then
// destination.
func (m *Mesh) BoundaryEdges() [][2]int32 {
	h := m.HalfEdges()
	var out [][2]int32
	for u := int32(0); int(u) < len(m.Points); u++ {
		prev := int32(-1)
		for _, k := range h.From(u) {
			v := k.To()
			if v != prev && h.last(v, u) < 0 {
				out = append(out, [2]int32{u, v})
			}
			prev = v
		}
	}
	return out
}

// Adjacency returns, for each triangle, the indices of the neighbors
// across its three edges (edge e runs from vertex e to e+1 mod 3), with -1
// for boundary edges. Solvers and post-processors share this instead of
// rebuilding the edge table themselves. When several triangles use the
// reverse of an edge the highest-numbered one is reported, and a triangle
// referencing a vertex outside Points has no neighbors, so the function is
// safe on corrupted meshes.
func (m *Mesh) Adjacency() [][3]int32 {
	h := m.HalfEdges()
	adj := make([][3]int32, len(m.Triangles))
	for i, t := range m.Triangles {
		adj[i] = [3]int32{-1, -1, -1}
		if !m.ValidRefs(t) {
			continue
		}
		for e := 0; e < 3; e++ {
			if k := h.last(t[(e+1)%3], t[e]); k >= 0 {
				adj[i][e] = int32(h.key[k].Triangle())
			}
		}
	}
	return adj
}
