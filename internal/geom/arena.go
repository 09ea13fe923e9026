package geom

import "sync"

// expArena is a bump allocator for expansion scratch. The exact predicate
// fallbacks build dozens of short-lived expansions per call; carving them
// out of one pooled block instead of the heap removes the dominant
// allocation source of the Delaunay kernel (only a scalar estimate escapes
// a predicate, so the whole block is reusable the moment the call returns).
type expArena struct {
	buf []float64
	off int
}

var expArenaPool = sync.Pool{
	New: func() any { return &expArena{buf: make([]float64, 4096)} },
}

func getArena() *expArena { return expArenaPool.Get().(*expArena) }

func putArena(a *expArena) {
	a.off = 0
	expArenaPool.Put(a)
}

// take returns a zero-length slice with capacity n carved from the block.
// If the block is exhausted it is replaced with a larger one; slices handed
// out earlier remain valid because their callers still reference the old
// block.
func (a *expArena) take(n int) []float64 {
	if a.off+n > len(a.buf) {
		size := 2 * len(a.buf)
		for size < n {
			size *= 2
		}
		a.buf = make([]float64, size)
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// pair returns the two-component expansion {lo, hi} in arena storage.
func (a *expArena) pair(lo, hi float64) []float64 {
	h := a.take(2)
	return append(h, lo, hi)
}

// sum returns the zero-eliminated sum of expansions e and f (fast
// expansion sum with zero elimination). The inputs must be valid
// expansions (increasing magnitude, nonoverlapping); the output is too. An
// input is returned unchanged when the other is empty.
func (a *expArena) sum(e, f []float64) []float64 {
	if len(e) == 0 {
		return f
	}
	if len(f) == 0 {
		return e
	}
	h := a.take(len(e) + len(f))
	ei, fi := 0, 0
	enow, fnow := e[0], f[0]
	var q, hh float64
	if absLess(fnow, enow) {
		q = fnow
		fi++
	} else {
		q = enow
		ei++
	}
	if ei < len(e) && fi < len(f) {
		enow, fnow = e[ei], f[fi]
		if absLess(fnow, enow) {
			q, hh = fastTwoSum(fnow, q)
			fi++
		} else {
			q, hh = fastTwoSum(enow, q)
			ei++
		}
		if hh != 0 {
			h = append(h, hh)
		}
		for ei < len(e) && fi < len(f) {
			enow, fnow = e[ei], f[fi]
			if absLess(fnow, enow) {
				q, hh = twoSum(q, fnow)
				fi++
			} else {
				q, hh = twoSum(q, enow)
				ei++
			}
			if hh != 0 {
				h = append(h, hh)
			}
		}
	}
	for ei < len(e) {
		q, hh = twoSum(q, e[ei])
		ei++
		if hh != 0 {
			h = append(h, hh)
		}
	}
	for fi < len(f) {
		q, hh = twoSum(q, f[fi])
		fi++
		if hh != 0 {
			h = append(h, hh)
		}
	}
	if q != 0 || len(h) == 0 {
		h = append(h, q)
	}
	return h
}

// scale returns the zero-eliminated product of expansion e and scalar b.
func (a *expArena) scale(e []float64, b float64) []float64 {
	if len(e) == 0 || b == 0 {
		h := a.take(1)
		return append(h, 0)
	}
	h := a.take(2 * len(e))
	q, hh := twoProduct(e[0], b)
	if hh != 0 {
		h = append(h, hh)
	}
	for i := 1; i < len(e); i++ {
		t1, t0 := twoProduct(e[i], b)
		var sum float64
		sum, hh = twoSum(q, t0)
		if hh != 0 {
			h = append(h, hh)
		}
		q, hh = fastTwoSum(t1, sum)
		if hh != 0 {
			h = append(h, hh)
		}
	}
	if q != 0 || len(h) == 0 {
		h = append(h, q)
	}
	return h
}

// mul returns the exact product of expansions e and f. Cost is
// O(len(e)*len(f)) components before zero elimination; only the last
// stage of a predicate pays it.
func (a *expArena) mul(e, f []float64) []float64 {
	prod := a.take(1)
	prod = append(prod, 0)
	for _, c := range e {
		if c == 0 {
			continue
		}
		prod = a.sum(prod, a.scale(f, c))
	}
	return prod
}

// twoTwoDiff returns the exact expansion of x*y - z*w, at most four
// components of increasing magnitude.
func (a *expArena) twoTwoDiff(x, y, z, w float64) []float64 {
	p1, p0 := twoProduct(x, y)
	q1, q0 := twoProduct(z, w)
	return a.sum(a.pair(p0, p1), a.pair(-q0, -q1))
}

func absLess(a, b float64) bool {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	return a < b
}
