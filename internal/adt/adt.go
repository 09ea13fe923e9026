// Package adt implements the Alternating Digital Tree of Bonet & Peraire
// (1991) for geometric searching. In two dimensions a segment's axis-aligned
// extent box (xmin, ymin, xmax, ymax) is treated as a point in a
// four-dimensional unit hypercube; extent-box overlap queries become
// hyper-rectangular range searches, answered in O(log n) expected time per
// query. The paper uses the ADT as the second stage of its hierarchical
// intersection pruning, after the Cohen–Sutherland AABB pass.
//
// The tree is flat: box i is node i, children are node indices, and each
// node records the split value its children were placed by, so a query
// walks an explicit stack and keeps no region bookkeeping. A built tree is
// read-only; any number of goroutines may query it at once.
package adt

import "pamg2d/internal/geom"

// dims is the dimensionality of the digital tree: 2-D extent boxes become
// 4-D points (xmin, ymin, xmax, ymax).
const dims = 4

// none marks a missing child.
const none = -1

type node struct {
	key [dims]float64
	// split is the midpoint of the node's region along its depth's
	// dimension: keys below it went left, the rest right.
	split       float64
	left, right int32
}

// Tree is an alternating digital tree over the extent boxes it was built
// from. Its root region is a world box; boxes outside it are still found
// but degrade balance.
type Tree struct {
	nodes []node
}

// Build returns the tree of boxes, box i carrying id i, over the root
// region of the 2-D world box: dimensions 0 and 2 span its x range, 1 and
// 3 its y range. The boxes are inserted in index order, so the tree's
// shape is a function of world and boxes alone.
func Build(world geom.BBox, boxes []geom.BBox) *Tree {
	lo0 := [dims]float64{world.Min.X, world.Min.Y, world.Min.X, world.Min.Y}
	hi0 := [dims]float64{world.Max.X, world.Max.Y, world.Max.X, world.Max.Y}
	for i := range dims {
		if hi0[i] <= lo0[i] {
			hi0[i] = lo0[i] + 1 // guard against degenerate regions
		}
	}
	t := &Tree{nodes: make([]node, len(boxes))}
	for i, b := range boxes {
		k := [dims]float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
		lo, hi := lo0, hi0
		depth := 0
		if i > 0 {
			cur := &t.nodes[0]
			for ; ; depth++ {
				dim := depth % dims
				mid := cur.split
				child := &cur.right
				if k[dim] < mid {
					hi[dim] = mid
					child = &cur.left
				} else {
					lo[dim] = mid
				}
				if *child == none {
					*child = int32(i)
					depth++
					break
				}
				cur = &t.nodes[*child]
			}
		}
		dim := depth % dims
		t.nodes[i] = node{key: k, split: (lo[dim] + hi[dim]) / 2, left: none, right: none}
	}
	return t
}

// VisitOverlapping streams, through visit, the ids of the stored boxes
// that overlap the query box q (boundaries count), in preorder: a node,
// then its left subtree, then its right. Returning false from visit stops
// the search.
//
// A stored box P overlaps q iff P.xmin <= q.xmax, P.ymin <= q.ymax,
// P.xmax >= q.xmin and P.ymax >= q.ymin: a 4-D range query whose open
// sides reach far beyond any root region, so boxes stored outside it are
// still found.
func (t *Tree) VisitOverlapping(q geom.BBox, visit func(id int) bool) {
	if len(t.nodes) == 0 {
		return
	}
	const slack = 1e30
	qlo := [dims]float64{-slack, -slack, q.Min.X, q.Min.Y}
	qhi := [dims]float64{q.Max.X, q.Max.Y, slack, slack}
	type entry struct{ node, depth int32 }
	var buf [64]entry
	stack := append(buf[:0], entry{0, 0})
	for len(stack) > 0 {
		e := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &t.nodes[e.node]
		k := &n.key
		if !(k[0] < qlo[0] || k[0] > qhi[0] || k[1] < qlo[1] || k[1] > qhi[1] ||
			k[2] < qlo[2] || k[2] > qhi[2] || k[3] < qlo[3] || k[3] > qhi[3]) &&
			!visit(int(e.node)) {
			return
		}
		dim := e.depth % dims
		// Push right first so the left subtree is walked first.
		if n.right != none && qhi[dim] >= n.split {
			stack = append(stack, entry{n.right, e.depth + 1})
		}
		if n.left != none && qlo[dim] < n.split {
			stack = append(stack, entry{n.left, e.depth + 1})
		}
	}
}
