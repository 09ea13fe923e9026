package core

import (
	"math"
	"sort"

	"pamg2d/internal/adt"
	"pamg2d/internal/decouple"
	"pamg2d/internal/delaunay"
	"pamg2d/internal/geom"
	"pamg2d/internal/sizing"
)

// transitionSectors splits the transition annulus (between the boundary
// layer's outer boundary and the near-body box border) into angular
// sectors so the near-body region parallelizes like everything else. Each
// radial cut starts at an existing outer-boundary vertex and ends at an
// existing box-border point — shared borders are never re-discretized —
// with the interior of the cut marched by the decoupling k-rule. Sectors
// apply only when the outer boundary forms a single simple loop (a
// single-element configuration or fully merged layers); otherwise the
// caller falls back to one transition task. The bool result reports
// whether sector decomposition succeeded.
func transitionSectors(in delaunay.Input, nOuter int, size sizing.Func, sectors int) ([]delaunay.Input, bool) {
	if sectors < 2 {
		return nil, false
	}
	// The first nOuter points of the transition input are the outer
	// boundary; the rest are the box border ring, whose segments are the
	// trailing ones. Rebuild both rings.
	loop, ok := chainSingleLoop(in.Segments, nOuter)
	if !ok || len(loop) < 2*sectors {
		return nil, false
	}
	boxRing := make([]int32, 0, len(in.Points)-nOuter)
	for i := nOuter; i < len(in.Points); i++ {
		boxRing = append(boxRing, int32(i))
	}
	if len(boxRing) < 2*sectors {
		return nil, false
	}

	// Parametrize both rings by angle around the loop centroid.
	var cx, cy float64
	for _, vi := range loop {
		cx += in.Points[vi].X
		cy += in.Points[vi].Y
	}
	ctr := geom.Pt(cx/float64(len(loop)), cy/float64(len(loop)))
	angleOf := func(p geom.Point) float64 { return math.Atan2(p.Y-ctr.Y, p.X-ctr.X) }

	pick := func(ring []int32, theta float64) int {
		best, bestD := -1, math.Inf(1)
		for i, vi := range ring {
			d := math.Abs(angleDiff(angleOf(in.Points[vi]), theta))
			if d < bestD {
				bestD = d
				best = i
			}
		}
		return best
	}

	cuts := make([]cut, 0, sectors)
	usedLoop := map[int]bool{}
	usedBox := map[int]bool{}
	for j := 0; j < sectors; j++ {
		theta := -math.Pi + 2*math.Pi*float64(j)/float64(sectors)
		li := pick(loop, theta)
		bi := pick(boxRing, theta)
		if usedLoop[li] || usedBox[bi] {
			return nil, false // degenerate spacing; fall back
		}
		usedLoop[li] = true
		usedBox[bi] = true
		a := in.Points[loop[li]]
		b := in.Points[boxRing[bi]]
		m := decouple.MarchBorder(a, b, size)
		cuts = append(cuts, cut{loopIdx: li, boxIdx: bi, path: m[1:]})
	}
	// Cuts must appear in the same cyclic order on both rings.
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].loopIdx < cuts[j].loopIdx })
	for i := 1; i < len(cuts); i++ {
		if cuts[i].boxIdx == cuts[i-1].boxIdx {
			return nil, false
		}
	}
	orderOK := true
	first := cuts[0].boxIdx
	prev := first
	for i := 1; i < len(cuts); i++ {
		cur := cuts[i].boxIdx
		if (cur-first+len(boxRing))%len(boxRing) < (prev-first+len(boxRing))%len(boxRing) {
			orderOK = false
			break
		}
		prev = cur
	}
	if !orderOK {
		return nil, false
	}

	// The cut paths must not intersect the outer boundary, the box ring,
	// or each other (away from shared endpoints); verify with an ADT over
	// every boundary segment.
	if !cutsAreClean(in, loop, boxRing, cuts) {
		return nil, false
	}

	// Assemble the sector inputs.
	var out []delaunay.Input
	for j := range cuts {
		next := (j + 1) % len(cuts)
		var pts []geom.Point
		add := func(p geom.Point) { pts = append(pts, p) }
		// Inner arc from cut j's loop vertex forward (in loop order) to
		// cut next's loop vertex.
		for i := cuts[j].loopIdx; ; i = (i + 1) % len(loop) {
			add(in.Points[loop[i]])
			if i == cuts[next].loopIdx {
				break
			}
		}
		// Outward along cut next.
		for _, p := range cuts[next].path {
			add(p)
		}
		// Box arc from cut next's box point backward to cut j's box point.
		// The loop runs CCW around the body and the box ring runs CCW as
		// well, so walking the box from next's point back to j's point
		// goes against the ring direction.
		for i := cuts[next].boxIdx; ; i = (i - 1 + len(boxRing)) % len(boxRing) {
			add(in.Points[boxRing[i]])
			if i == cuts[j].boxIdx {
				break
			}
		}
		// Inward along cut j.
		for i := len(cuts[j].path) - 1; i >= 0; i-- {
			add(cuts[j].path[i])
		}
		n := int32(len(pts))
		segs := make([][2]int32, n)
		for k := int32(0); k < n; k++ {
			segs[k] = [2]int32{k, (k + 1) % n}
		}
		out = append(out, delaunay.Input{Points: pts, Segments: segs})
	}
	return out, true
}

// angleDiff returns the wrapped difference a-b in (-pi, pi].
func angleDiff(a, b float64) float64 {
	d := a - b
	for d <= -math.Pi {
		d += 2 * math.Pi
	}
	for d > math.Pi {
		d -= 2 * math.Pi
	}
	return d
}

// chainSingleLoop chains the directed segments among the first nOuter
// points into loops and returns the vertex order when there is exactly one
// loop covering all outer points.
func chainSingleLoop(segs [][2]int32, nOuter int) ([]int32, bool) {
	next := make(map[int32]int32, nOuter)
	count := 0
	for _, s := range segs {
		if int(s[0]) < nOuter && int(s[1]) < nOuter {
			if _, dup := next[s[0]]; dup {
				return nil, false
			}
			next[s[0]] = s[1]
			count++
		}
	}
	if count != nOuter || count < 3 {
		return nil, false
	}
	loop := make([]int32, 0, nOuter)
	start := int32(-1)
	for v := range next {
		start = v
		break
	}
	v := start
	for {
		loop = append(loop, v)
		nv, ok := next[v]
		if !ok {
			return nil, false
		}
		v = nv
		if v == start {
			break
		}
		if len(loop) > nOuter {
			return nil, false
		}
	}
	if len(loop) != nOuter {
		return nil, false // more than one loop
	}
	return loop, true
}

// cut is one radial decoupling path of the transition annulus: it runs
// from an existing outer-boundary vertex to an existing box-border point,
// with marched interior points.
type cut struct {
	loopIdx, boxIdx int
	path            []geom.Point // marched interior points, inner -> outer
}

// segments returns the cut's full polyline as segments.
func (c *cut) segments(in delaunay.Input, loop, boxRing []int32) []geom.Segment {
	pts := make([]geom.Point, 0, len(c.path)+2)
	pts = append(pts, in.Points[loop[c.loopIdx]])
	pts = append(pts, c.path...)
	pts = append(pts, in.Points[boxRing[c.boxIdx]])
	segs := make([]geom.Segment, 0, len(pts)-1)
	for i := 0; i+1 < len(pts); i++ {
		segs = append(segs, geom.Segment{A: pts[i], B: pts[i+1]})
	}
	return segs
}

// cutsAreClean verifies that no cut path segment improperly intersects the
// rings or another cut: every intersection other than the shared ring
// endpoints disqualifies the sector decomposition. The check prunes with
// an alternating digital tree over the obstacle segments.
func cutsAreClean(in delaunay.Input, loop, boxRing []int32, cuts []cut) bool {
	var obstacles []geom.Segment
	for i := range loop {
		obstacles = append(obstacles, geom.Segment{
			A: in.Points[loop[i]],
			B: in.Points[loop[(i+1)%len(loop)]],
		})
	}
	for i := range boxRing {
		obstacles = append(obstacles, geom.Segment{
			A: in.Points[boxRing[i]],
			B: in.Points[boxRing[(i+1)%len(boxRing)]],
		})
	}
	var cutSegs []geom.Segment
	for i := range cuts {
		cutSegs = append(cutSegs, cuts[i].segments(in, loop, boxRing)...)
	}
	world := geom.EmptyBBox()
	boxes := make([]geom.BBox, len(obstacles))
	for i, s := range obstacles {
		boxes[i] = s.BBox()
		world = world.Union(boxes[i])
	}
	tree := adt.Build(world, boxes)
	for _, cs := range cutSegs {
		bad := false
		tree.VisitOverlapping(cs.BBox(), func(oi int) bool {
			switch geom.SegmentsIntersect(cs, obstacles[oi]) {
			case geom.SegDisjoint:
				return true
			case geom.SegTouch:
				// Touching at the cut's own ring endpoints is expected.
				o := obstacles[oi]
				for _, e := range []geom.Point{cs.A, cs.B} {
					if e == o.A || e == o.B {
						return true
					}
				}
			}
			bad = true
			return false
		})
		if bad {
			return false
		}
	}
	// Cuts against each other: cuts share no endpoints, so any contact is
	// disqualifying. Brute force is fine at this scale.
	for i := 0; i < len(cuts); i++ {
		si := cuts[i].segments(in, loop, boxRing)
		for j := i + 1; j < len(cuts); j++ {
			for _, a := range si {
				for _, b := range cuts[j].segments(in, loop, boxRing) {
					if geom.SegmentsIntersect(a, b) != geom.SegDisjoint {
						return false
					}
				}
			}
		}
	}
	return true
}
