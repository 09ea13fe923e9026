package delaunay

// Bulk-insertion order. Triangle's divide-and-conquer kernel wants its
// vertices sorted by x, which is why the paper keeps every subdomain
// x-sorted; for this incremental Bowyer–Watson kernel x order is the worst
// coherent order, because every insertion lands on the sweep front and its
// cavity reaches back across the front's long, thin triangles. A
// space-filling curve keeps consecutive points close in both directions:
// on naca-viscous's four 1-rank boundary-layer leaves (42,851 points) the
// Hilbert order below digs 8.7 triangles per cavity and walks 6.3 steps
// per insertion, where x order took 19.9 and 13.5. Amenta, Choi & Rote's
// BRIO (SoCG 2003) is the same idea with randomised rounds; one curve is
// enough here and keeps the order a function of the input alone.

import (
	"math"
	"slices"

	"pamg2d/internal/geom"
)

// insertionOrder computes the bulk-insertion order shared by Build and
// BuildParallel. An input without segments goes in Hilbert-curve order.
// An input with segments goes in x order and turns the bin seed on:
// segment recovery and refinement then make scattered locate queries,
// and the bin seed bounds their walks without touching the order.
// Reordering constrained inputs as well moves refined meshes, so they keep
// x order.
func insertionOrder(in Input, t *Triangulation) []int32 {
	if len(in.Segments) == 0 {
		return hilbertOrder(in.Points)
	}
	order := make([]int32, len(in.Points))
	for i := range order {
		order[i] = int32(i)
	}
	pts := in.Points
	slices.SortFunc(order, func(i, j int32) int {
		a, b := pts[i], pts[j]
		switch {
		case a.X < b.X:
			return -1
		case a.X > b.X:
			return 1
		case a.Y < b.Y:
			return -1
		case a.Y > b.Y:
			return 1
		}
		return 0
	})
	t.enableBinSeeding(geom.BBoxOf(in.Points), len(in.Points))
	return order
}

// hilbertBits is the resolution of the curve: points are quantized onto a
// 2^hilbertBits × 2^hilbertBits grid, so a key fills 32 bits.
const hilbertBits = 16

// hilbertOrder returns the indices of pts sorted by their Hilbert index on
// a grid over pts' own bounding box, ties (points sharing a grid cell, and
// duplicates) in index order, so the lowest index of a duplicate group is
// the one inserted. Each point becomes the word key<<32 | index, and a
// stable radix sort on the key half orders the words.
//
// Every rank must order a leaf identically, so no expression here may be
// fused into a multiply-add: the quantization is a subtraction followed
// by a multiplication, which no FMA instruction computes.
func hilbertOrder(pts []geom.Point) []int32 {
	n := len(pts)
	bb := geom.BBoxOf(pts)
	const side = 1<<hilbertBits - 1
	scale := func(lo, hi float64) float64 {
		if s := side / (hi - lo); s > 0 && !math.IsInf(s, 1) {
			return s
		}
		return 0 // a flat or non-finite extent: one grid line
	}
	sx, sy := scale(bb.Min.X, bb.Max.X), scale(bb.Min.Y, bb.Max.Y)
	quantize := func(v float64) uint32 {
		switch {
		case !(v > 0): // also NaN
			return 0
		case v >= side:
			return side
		}
		return uint32(v)
	}
	buf := make([]uint64, 2*n)
	words := buf[:n]
	for i, p := range pts {
		x := quantize((p.X - bb.Min.X) * sx)
		y := quantize((p.Y - bb.Min.Y) * sy)
		words[i] = uint64(hilbertIndex(x, y))<<32 | uint64(i)
	}
	words = radixSortHigh(words, buf[n:])
	order := make([]int32, n)
	for i, w := range words {
		order[i] = int32(uint32(w))
	}
	return order
}

// hilbertStep is the Hilbert curve as a four-state automaton that reads
// one bit of x and one of y per level, most significant first. A state is
// the symmetry the enclosing quadrants have applied to the rest of the
// coordinates: bit 0 swaps x and y, bit 1 complements both. Entry
// state<<2 | x<<1 | y holds the quadrant's position along the curve in its
// low two bits and the state for the next level above them.
var hilbertStep = func() (tab [16]uint8) {
	for s := range 4 {
		for q := range 4 {
			x, y := q>>1, q&1
			if s&2 != 0 {
				x, y = x^1, y^1
			}
			if s&1 != 0 {
				x, y = y, x
			}
			next := s
			if y == 0 {
				if x == 1 {
					next ^= 2
				}
				next ^= 1
			}
			tab[s<<2|q] = uint8(next<<2 | (3 * x) ^ y)
		}
	}
	return tab
}()

// hilbertIndex returns the position of grid cell (x, y) along the Hilbert
// curve through the 2^hilbertBits × 2^hilbertBits grid.
func hilbertIndex(x, y uint32) uint32 {
	var d, s uint32
	for b := hilbertBits - 1; b >= 0; b-- {
		e := hilbertStep[s<<2|(x>>b&1)<<1|y>>b&1]
		d = d<<2 | uint32(e&3)
		s = uint32(e >> 2)
	}
	return d
}

// radixSortHigh sorts words by their high 32 bits, stably, one byte per
// pass, using tmp (as long as words) as the other buffer, and returns the
// buffer that holds the result. A pass whose byte is the same in every
// word moves nothing and is skipped.
func radixSortHigh(words, tmp []uint64) []uint64 {
	var count [4][256]uint32
	for _, w := range words {
		count[0][uint8(w>>32)]++
		count[1][uint8(w>>40)]++
		count[2][uint8(w>>48)]++
		count[3][uint8(w>>56)]++
	}
	src, dst := words, tmp
	for pass := range count {
		shift := 32 + 8*pass
		c := &count[pass]
		if len(src) == 0 || int(c[uint8(src[0]>>shift)]) == len(src) {
			continue
		}
		var sum uint32
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, w := range src {
			b := uint8(w >> shift)
			dst[c[b]] = w
			c[b]++
		}
		src, dst = dst, src
	}
	return src
}
