package adt

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"pamg2d/internal/geom"
)

// refTree is the pointer tree the flat Tree replaced, kept as the
// reference for the order of its visits: one heap node per box, each query
// recursing with the node's region and halving it at every level.
type refTree struct {
	root   *refNode
	lo, hi [dims]float64
}

type refNode struct {
	key         [dims]float64
	id          int
	left, right *refNode
}

func newRefTree(b geom.BBox) *refTree {
	lo := [dims]float64{b.Min.X, b.Min.Y, b.Min.X, b.Min.Y}
	hi := [dims]float64{b.Max.X, b.Max.Y, b.Max.X, b.Max.Y}
	for i := 0; i < dims; i++ {
		if hi[i] <= lo[i] {
			hi[i] = lo[i] + 1
		}
	}
	return &refTree{lo: lo, hi: hi}
}

func (t *refTree) insertBox(b geom.BBox, id int) {
	k := [dims]float64{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
	nn := &refNode{key: k, id: id}
	if t.root == nil {
		t.root = nn
		return
	}
	lo, hi := t.lo, t.hi
	cur := t.root
	for depth := 0; ; depth++ {
		dim := depth % dims
		mid := (lo[dim] + hi[dim]) / 2
		if k[dim] < mid {
			hi[dim] = mid
			if cur.left == nil {
				cur.left = nn
				return
			}
			cur = cur.left
		} else {
			lo[dim] = mid
			if cur.right == nil {
				cur.right = nn
				return
			}
			cur = cur.right
		}
	}
}

func (t *refTree) search(n *refNode, lo, hi [dims]float64, depth int, qlo, qhi [dims]float64, visit func(int) bool) bool {
	if n == nil {
		return true
	}
	inside := true
	for i := 0; i < dims; i++ {
		if n.key[i] < qlo[i] || n.key[i] > qhi[i] {
			inside = false
			break
		}
	}
	if inside && !visit(n.id) {
		return false
	}
	dim := depth % dims
	mid := (lo[dim] + hi[dim]) / 2
	if n.left != nil && qlo[dim] < mid {
		nhi := hi
		nhi[dim] = mid
		if !t.search(n.left, lo, nhi, depth+1, qlo, qhi, visit) {
			return false
		}
	}
	if n.right != nil && qhi[dim] >= mid {
		nlo := lo
		nlo[dim] = mid
		if !t.search(n.right, nlo, hi, depth+1, qlo, qhi, visit) {
			return false
		}
	}
	return true
}

func (t *refTree) visitOverlapping(q geom.BBox, visit func(id int) bool) {
	const slack = 1e30
	qlo := [dims]float64{-slack, -slack, q.Min.X, q.Min.Y}
	qhi := [dims]float64{q.Max.X, q.Max.Y, slack, slack}
	t.search(t.root, t.lo, t.hi, 0, qlo, qhi, visit)
}

// visits returns the first limit ids (all when limit <= 0) a visitor
// sees, stopping the search there.
func visits(visit func(geom.BBox, func(int) bool), q geom.BBox, limit int) []int {
	var out []int
	visit(q, func(id int) bool {
		out = append(out, id)
		return limit <= 0 || len(out) < limit
	})
	return out
}

// fuzzBoxes decodes a world box, boxes and queries from data. Coordinates
// come from a small grid so that keys tie with each other and with the
// split values; the world may be degenerate or miss most boxes.
func fuzzBoxes(data []byte) (world geom.BBox, boxes, queries []geom.BBox) {
	coord := func(b byte) float64 { return float64(int(b%64)-16) / 4 }
	box := func(c []byte) geom.BBox {
		x0, y0 := coord(c[0]), coord(c[1])
		return geom.BBox{Min: geom.Pt(x0, y0), Max: geom.Pt(x0+coord(c[2])/4+4, y0+coord(c[3])/4+4)}
	}
	if len(data) < 5 {
		return
	}
	switch data[0] % 4 {
	case 0: // a point: every dimension degenerate
		world = geom.BBox{Min: geom.Pt(coord(data[1]), coord(data[2])), Max: geom.Pt(coord(data[1]), coord(data[2]))}
	case 1: // flat in y
		world = geom.BBox{Min: geom.Pt(coord(data[1]), coord(data[2])), Max: geom.Pt(coord(data[1])+coord(data[3]), coord(data[2]))}
	default:
		world = box(data[1:5])
	}
	data = data[5:]
	for len(data) >= 4 {
		b := box(data[:4])
		if data[0]&0x80 != 0 {
			queries = append(queries, b)
		} else {
			boxes = append(boxes, b)
		}
		data = data[4:]
	}
	return
}

func checkVisitOrder(t *testing.T, world geom.BBox, boxes, queries []geom.BBox, limit int) {
	t.Helper()
	ref := newRefTree(world)
	for i, b := range boxes {
		ref.insertBox(b, i)
	}
	tr := Build(world, boxes)
	for qi, q := range queries {
		want := visits(ref.visitOverlapping, q, limit)
		got := visits(tr.VisitOverlapping, q, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("world %v, %d boxes, query %d %v, limit %d: visits %v, reference %v",
				world, len(boxes), qi, q, limit, got, want)
		}
	}
}

// TestVisitOrderMatchesReference pins the flat tree's visit order to the
// pointer tree's on random data: boxes inside and outside the root region,
// every query with and without an early stop.
func TestVisitOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
		if trial%5 == 0 {
			world = geom.BBox{Min: geom.Pt(3, 3), Max: geom.Pt(3, 5)} // degenerate in x
		}
		outer := geom.BBox{Min: geom.Pt(-5, -5), Max: geom.Pt(15, 15)}
		boxes := make([]geom.BBox, 1+rng.Intn(400))
		for i := range boxes {
			boxes[i] = randBox(rng, outer, 2)
		}
		queries := make([]geom.BBox, 30)
		for i := range queries {
			queries[i] = randBox(rng, outer, 6)
		}
		checkVisitOrder(t, world, boxes, queries, 0)
		checkVisitOrder(t, world, boxes, queries, 1+rng.Intn(8))
	}
}

func FuzzVisitOrder(f *testing.F) {
	seed := make([]byte, 0, 4*64)
	rng := rand.New(rand.NewSource(1))
	for range 64 {
		seed = binary.LittleEndian.AppendUint32(seed, rng.Uint32())
	}
	f.Add(seed, uint8(0))
	f.Add(seed, uint8(3))
	f.Add(append([]byte{0, 1, 2, 3, 4}, seed...), uint8(0))
	f.Add(append([]byte{1, 1, 2, 3, 4}, seed...), uint8(2))
	f.Add([]byte{2, 16, 16, 16, 16, 16, 16, 0, 0, 16, 16, 0, 0, 0x90, 16, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, stop uint8) {
		world, boxes, queries := fuzzBoxes(data)
		checkVisitOrder(t, world, boxes, queries, int(stop%8))
	})
}
