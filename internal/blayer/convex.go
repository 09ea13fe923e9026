package blayer

import (
	"math"
	"slices"

	"pamg2d/internal/geom"
)

// convexRuns is the convexity certificate of a refined surface loop: the
// part of ray resolution that needs no exact test.
//
// The loop is cut into maximal runs of strictly convex vertices. A run's
// chain is the run plus its two neighbours (the whole loop when every
// vertex is convex); a run is kept only when its chain, closed by the
// segment between its ends, is a strictly convex polygon H: every turn a
// strict left turn (geom.Orient2DSign) and the edge directions winding
// once. Then the hull neighbours of a run vertex A are its loop
// neighbours prev and next, and the normal cone of H at A is
//
//	N(A) = {d : d·(prev-A) <= 0 and d·(next-A) <= 0}.
//
// A ray from A whose current segment A→B has B-A in N(A), decided exactly
// with geom.DotSign, is certified: every point x of the segment has A as
// its nearest point on H. Two consequences make the reference's exact tests
// come out empty, so resolveSelf skips them:
//   - two certified rays of one run with distinct origins A ≠ A' are
//     disjoint, since a shared point would have both as its nearest point
//     on H;
//   - a certified ray meets H, and so every chain segment, only at A;
//     the chain segments that do not end at A do not contain it, because
//     A is a vertex of the strictly convex H.
//
// Both hold for the float coordinates as they are, so skipping moves no
// bit of any MaxLen or Stats. A trimmed ray is re-certified at its new
// length. Coordinates beyond ±2^250 (or not finite) certify nothing: there
// the predicates' products could overflow, so the exact tests decide.
type convexRuns struct {
	surf []geom.Point
	// run[v] is the run surface vertex v belongs to, -1 when it is in no
	// certified run.
	run []int32
	// chains[r] is run r's chain segments.
	chains []chainSpan
	// whole reports that one run covers the whole loop.
	whole bool
}

// chainSpan is the nsegs surface segments from segment first (segment k
// joins vertices k and k+1): all of them when the run is the whole loop.
type chainSpan struct{ first, nsegs int }

// newConvexRuns finds the certified runs of the loop surf.
func newConvexRuns(surf []geom.Point) convexRuns {
	n := len(surf)
	c := convexRuns{surf: surf, run: make([]int32, n)}
	for v := range surf {
		c.run[v] = -1
	}
	if n < 3 || slices.ContainsFunc(surf, func(p geom.Point) bool { return !moderate(p) }) {
		return c
	}
	z := -1 // a vertex that is not strictly convex
	for v := range surf {
		if !Convex(surf, v) {
			z = v
			break
		}
	}
	if z < 0 {
		if windsOnce(surf, 0, n) {
			c.whole = true
			c.addRun(0, n, 0, n)
		}
		return c
	}
	// Walk the loop once from z, cutting at every vertex that is not
	// strictly convex.
	for k := 1; k < n; {
		v := (z + k) % n
		if !Convex(surf, v) {
			k++
			continue
		}
		m := 1
		for k+m < n && Convex(surf, (v+m)%n) {
			m++
		}
		// The chain is vertices v-1 .. v+m, m+2 of them; its closing turns
		// are the two at its ends, the run's own turns are convex already.
		s, e := (v+n-1)%n, (v+m)%n
		if geom.Orient2DSign(surf[(e+n-1)%n], surf[e], surf[s]) > 0 &&
			geom.Orient2DSign(surf[e], surf[s], surf[v]) > 0 &&
			windsOnce(surf, s, m+2) {
			c.addRun(v, m, s, m+1)
		}
		k += m
	}
	return c
}

// addRun records the m run vertices from v and the nsegs chain segments
// from segment first as one run.
func (c *convexRuns) addRun(v, m, first, nsegs int) {
	id := int32(len(c.chains))
	for i := range m {
		c.run[(v+i)%len(c.surf)] = id
	}
	c.chains = append(c.chains, chainSpan{first, nsegs})
}

// windsOnce reports whether the closed polygon of the m loop vertices from
// s, all of whose turns are strict left turns, turns through exactly one
// revolution. Each turn is less than a half turn, so the edge direction's
// angle crosses a multiple of 2π exactly when it passes from the lower
// half-plane [π, 2π) to the upper [0, π); the crossings are counted
// exactly from coordinate comparisons.
func windsOnce(surf []geom.Point, s, m int) bool {
	n := len(surf)
	upper := func(i int) bool {
		a, b := surf[(s+i)%n], surf[(s+(i+1)%m)%n]
		return b.Y > a.Y || (b.Y == a.Y && b.X > a.X)
	}
	crossings := 0
	prev := upper(m - 1)
	for i := range m {
		u := upper(i)
		if u && !prev {
			crossings++
		}
		prev = u
	}
	return crossings == 1
}

// certify returns the run whose certificate covers ray r at its current
// length, or -1.
func (c *convexRuns) certify(r *Ray, full float64) int32 {
	v := r.SurfaceIdx
	id := c.run[v]
	if id < 0 {
		return -1
	}
	n := len(c.surf)
	b := raySegment(r, full).B
	if !moderate(b) || geom.DotSign(r.Origin, b, c.surf[(v+n-1)%n]) > 0 || geom.DotSign(r.Origin, b, c.surf[(v+1)%n]) > 0 {
		return -1
	}
	return id
}

// inChain reports whether surface segment k is one of run id's chain
// segments.
func (c *convexRuns) inChain(id int32, k int) bool {
	n, ch := len(c.surf), c.chains[id]
	return (k-ch.first+n)%n < ch.nsegs
}

// moderate reports whether both coordinates of p lie within ±2^250, false
// for NaN.
func moderate(p geom.Point) bool {
	return math.Abs(p.X) <= 0x1p250 && math.Abs(p.Y) <= 0x1p250
}
