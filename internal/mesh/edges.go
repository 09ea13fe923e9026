package mesh

import (
	"fmt"
	"slices"

	"pamg2d/internal/geom"
)

// halfEdges is the mesh's directed edges grouped by origin vertex: a
// counting sort puts vertex v's outgoing half-edges in
// key[start[v]:start[v+1]], and each bucket is ordered by destination.
// Audit, BoundaryEdges and Adjacency all read this one table, which costs
// two flat allocations whatever the vertex degrees are.
//
// A key is dst<<32 | 3*triangle+edge, so within a bucket the half-edges to
// one destination are adjacent and the last of them belongs to the
// highest-numbered triangle.
type halfEdges struct {
	start []int32
	key   []uint64
}

// halfEdges builds the table. Triangles that reference a vertex outside
// Points contribute nothing.
func (m *Mesh) halfEdges() halfEdges {
	np := len(m.Points)
	// Counts go in two slots up, so that after the prefix sum start[v+1]
	// is origin v's write cursor and ends as its bucket's end.
	start := make([]int32, np+2)
	for _, t := range m.Triangles {
		if m.validRefs(t) {
			start[t[0]+2]++
			start[t[1]+2]++
			start[t[2]+2]++
		}
	}
	for v := 0; v < np; v++ {
		start[v+2] += start[v+1]
	}
	key := make([]uint64, start[np+1])
	for i, t := range m.Triangles {
		if !m.validRefs(t) {
			continue
		}
		for e := 0; e < 3; e++ {
			u := t[e]
			key[start[u+1]] = uint64(t[(e+1)%3])<<32 | uint64(3*i+e)
			start[u+1]++
		}
	}
	start = start[:np+1]
	for v := 0; v < np; v++ {
		slices.Sort(key[start[v]:start[v+1]])
	}
	return halfEdges{start: start, key: key}
}

func (m *Mesh) validRefs(t [3]int32) bool {
	np := uint32(len(m.Points))
	return uint32(t[0]) < np && uint32(t[1]) < np && uint32(t[2]) < np
}

// last returns the position in key of the last half-edge u->v, or -1 when
// there is none.
func (h halfEdges) last(u, v int32) int {
	// The first key at or above the lowest possible key to v+1; searched by
	// hand because slices.BinarySearch measured 10-15 % slower on
	// BoundaryEdges and Adjacency, whose time is this loop.
	lo, hi := int(h.start[u]), int(h.start[u+1])
	end := (uint64(uint32(v)) + 1) << 32
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.key[mid] < end {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo > int(h.start[u]) && int32(h.key[lo-1]>>32) == v {
		return lo - 1
	}
	return -1
}

// Audit checks structural soundness: every triangle CCW and
// non-degenerate, and no directed edge used by two triangles — so every
// edge is shared by at most two triangles with opposite orientations
// (conformity: no T-junctions among the indexed vertices, no overlapping
// elements).
func (m *Mesh) Audit() error {
	if err := validateTriangles(m); err != nil {
		return err
	}
	for i, t := range m.Triangles {
		if geom.Orient2DSign(m.Points[t[0]], m.Points[t[1]], m.Points[t[2]]) <= 0 {
			return fmt.Errorf("mesh: triangle %d not CCW", i)
		}
	}
	h := m.halfEdges()
	for u := range m.Points {
		bucket := h.key[h.start[u]:h.start[u+1]]
		for k := 1; k < len(bucket); k++ {
			if v := bucket[k] >> 32; v == bucket[k-1]>>32 {
				return fmt.Errorf("mesh: directed edge (%d,%d) used twice; overlapping triangles", u, v)
			}
		}
	}
	return nil
}

// BoundaryEdges returns the directed edges whose reverse belongs to no
// triangle, i.e. the mesh boundary, ordered by origin and then
// destination.
func (m *Mesh) BoundaryEdges() [][2]int32 {
	h := m.halfEdges()
	var out [][2]int32
	for u := int32(0); int(u) < len(m.Points); u++ {
		prev := int32(-1)
		for _, k := range h.key[h.start[u]:h.start[u+1]] {
			v := int32(k >> 32)
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
// safe on the corrupted meshes the invariant audit inspects.
func (m *Mesh) Adjacency() [][3]int32 {
	h := m.halfEdges()
	adj := make([][3]int32, len(m.Triangles))
	for i, t := range m.Triangles {
		adj[i] = [3]int32{-1, -1, -1}
		if !m.validRefs(t) {
			continue
		}
		for e := 0; e < 3; e++ {
			if k := h.last(t[(e+1)%3], t[e]); k >= 0 {
				adj[i][e] = int32(uint32(h.key[k]) / 3)
			}
		}
	}
	return adj
}
