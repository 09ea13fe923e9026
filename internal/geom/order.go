package geom

import (
	"cmp"
	"math"
	"slices"
)

// The lexicographic point order: the projection decomposition keeps every
// subdomain's vertices in (X, Y) and in (Y, X) order, the audit maps
// coordinates to mesh indices through the (X, Y) order, the kernel
// inserts constrained inputs in it.

// Compare orders p and q by X, then by Y, each as cmp.Compare orders
// floats: every NaN first and equal to each other, -0 equal to +0.
func Compare(p, q Point) int {
	switch {
	case p.X < q.X:
		return -1
	case p.X > q.X:
		return 1
	}
	return p.tie(q, true)
}

// CompareYX is Compare with the axes exchanged: by Y, then by X.
func CompareYX(p, q Point) int {
	switch {
	case p.Y < q.Y:
		return -1
	case p.Y > q.Y:
		return 1
	}
	return p.tie(q, false)
}

// tie orders p and q, whose major coordinates are equal or NaN, by
// cmp.Compare on the major and then the minor coordinates: (X, Y) when
// byX, else (Y, X). It stays out of line so that Compare and CompareYX
// inline.
//
//go:noinline
func (p Point) tie(q Point, byX bool) int {
	pm, pn := axes(p, byX)
	qm, qn := axes(q, byX)
	return cmp.Or(cmp.Compare(pm, qm), cmp.Compare(pn, qn))
}

// OrderXY returns the indices of pts sorted by Compare, ties in index
// order.
func OrderXY(pts []Point) []int32 { return order(pts, true) }

// OrderYX returns the indices of pts sorted by CompareYX, ties in index
// order.
func OrderYX(pts []Point) []int32 { return order(pts, false) }

// order sorts by (major, minor, index), (X, Y) when byX, with no
// comparison on the major coordinate: each point becomes a record of its
// major coordinate's orderKey and its index, a stable radix sort orders
// the records 11 bits a pass, skipping a pass whose digit is the same in
// every record, and each run of one major key is then sorted stably by
// the minor coordinate.
func order(pts []Point, byX bool) []int32 {
	type record struct {
		key uint64
		i   int32
	}
	const bits, digits = 11, 6 // 66 bits cover the key
	const mask = 1<<bits - 1
	n := len(pts)
	buf := make([]record, 2*n)
	recs, spare := buf[:n], buf[n:]
	var counts [digits][1 << bits]int32
	for i, p := range pts {
		major, _ := axes(p, byX)
		k := orderKey(major)
		recs[i] = record{k, int32(i)}
		for d := range counts {
			counts[d][k>>(bits*d)&mask]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if n == 0 || c[recs[0].key>>(bits*d)&mask] == int32(n) {
			continue // one digit throughout: the pass would keep the order
		}
		sum := int32(0)
		for b, k := range c {
			c[b] = sum
			sum += k
		}
		for _, r := range recs {
			b := r.key >> (bits * d) & mask
			spare[c[b]] = r
			c[b]++
		}
		recs, spare = spare, recs
	}
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && recs[hi].key == recs[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortStableFunc(recs[lo:hi], func(a, b record) int {
				_, ma := axes(pts[a.i], byX)
				_, mb := axes(pts[b.i], byX)
				return cmp.Compare(ma, mb)
			})
		}
		lo = hi
	}
	out := make([]int32, n)
	for k, r := range recs {
		out[k] = r.i
	}
	return out
}

// axes returns p's major and minor coordinates: (X, Y) when byX, else
// (Y, X).
func axes(p Point, byX bool) (major, minor float64) {
	if byX {
		return p.X, p.Y
	}
	return p.Y, p.X
}

// orderKey maps a float64 to a uint64 that sorts as cmp.Compare sorts the
// floats: every NaN first and equal to each other, then -Inf up to +Inf,
// with -0 equal to +0.
func orderKey(v float64) uint64 {
	switch {
	case v != v:
		return 0
	case v == 0:
		v = 0 // -0 takes +0's key
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
