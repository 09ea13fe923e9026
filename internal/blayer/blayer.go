// Package blayer implements the paper's anisotropic boundary-layer
// generator: extrusion-based point insertion along surface normals
// (Aubry et al.), refinement of large angles between neighboring rays by
// interpolated rays, fans of curved rays at cusps and blunt trailing
// edges, and hierarchical self- and multi-element intersection resolution
// (Cohen–Sutherland AABB pruning, then an alternating digital tree over
// 4-D extent-box points, then exact segment intersection tests).
package blayer

import (
	"math"

	"pamg2d/internal/adt"
	"pamg2d/internal/clip"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/pslg"
)

// Params controls boundary-layer generation.
type Params struct {
	// Growth spaces the layer points along each ray.
	Growth growth.Function
	// MaxLayers caps the number of layers per ray.
	MaxLayers int
	// MaxAngleDeg is the largest allowed angle between the rays of two
	// neighboring surface vertices; beyond it, new surface points with
	// linearly interpolated normals are inserted between them (paper
	// section II.B).
	MaxAngleDeg float64
	// CuspAngleDeg is the turn angle at a single vertex beyond which a fan
	// of rays is emitted at that vertex instead of new surface points.
	CuspAngleDeg float64
	// FanSpacingDeg is the angular spacing between consecutive fan rays.
	FanSpacingDeg float64
	// FanCurving bends fan rays toward the fan bisector with increasing
	// height (the paper's fans "curve inward towards the cusp point", as
	// the physics of the wake dictate). Zero disables curving; 1 bends
	// fully onto the bisector at the last layer.
	FanCurving float64
	// IsotropyFactor stops layer insertion when the normal spacing reaches
	// this multiple of the local tangential spacing, providing the smooth
	// transition to the isotropic region of Figure 5.
	IsotropyFactor float64
	// TrimFactor scales the distance to a detected ray intersection when
	// trimming; 1 inserts points strictly up to the intersection point.
	TrimFactor float64
	// SmoothLayers, when positive, limits the difference in layer counts
	// between neighboring rays to this value, smoothing the cliffs that
	// trimming and the isotropy cutoff would otherwise leave in the outer
	// border (the gradual height variation of Figure 5). Zero disables
	// smoothing.
	SmoothLayers int
}

// DefaultParams returns parameters suitable for chord-1 airfoils.
func DefaultParams() Params {
	return Params{
		Growth:         growth.Geometric{H0: 4e-4, Ratio: 1.25},
		MaxLayers:      40,
		MaxAngleDeg:    20,
		CuspAngleDeg:   60,
		FanSpacingDeg:  15,
		FanCurving:     0.5,
		IsotropyFactor: 1.0,
		TrimFactor:     1.0,
	}
}

// Ray is one extrusion ray of the boundary layer.
type Ray struct {
	Origin geom.Point
	Dir    geom.Vec // unit outward direction
	// MaxLen limits point insertion (set by intersection trimming);
	// +Inf when untrimmed.
	MaxLen float64
	// Tangential is the local surface spacing at the origin, used for the
	// isotropy cutoff.
	Tangential float64
	// Fan marks rays that belong to a cusp fan.
	Fan bool
	// FanBisector is the direction fan rays curve toward (unit).
	FanBisector geom.Vec
	// SurfaceIdx is the index of the originating vertex in the refined
	// surface loop (several fan rays may share one).
	SurfaceIdx int
}

// Layer is the generated boundary layer of one element.
type Layer struct {
	// Surface is the refined surface loop (original vertices plus any
	// interpolated large-angle vertices).
	Surface pslg.Loop
	// Rays, one or more per surface vertex in loop order.
	Rays []Ray
	// Points[i] are the inserted points of Rays[i], nearest first.
	Points [][]geom.Point
	// Stats counts the refinement and intersection-resolution work.
	Stats Stats
}

// Stats reports what generation did, mirroring the features of the
// paper's Figures 3, 4 and 13.
type Stats struct {
	OriginalVertices   int
	InsertedVertices   int // large-angle interpolated surface points
	FanRays            int
	SelfIntersections  int
	MultiIntersections int
	TrimmedRays        int
	TotalPoints        int
}

// edgeNormals returns the outward unit normal of each directed edge of the
// CCW loop (edge direction rotated -90 degrees).
func edgeNormals(pts []geom.Point) []geom.Vec {
	n := len(pts)
	out := make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		d := pts[(i+1)%n].Sub(pts[i]).Unit()
		out[i] = geom.V(d.Y, -d.X)
	}
	return out
}

// VertexNormals returns the outward unit normal at each vertex of the CCW
// loop: the angle bisector of the two adjacent edge normals.
func VertexNormals(pts []geom.Point) []geom.Vec {
	n := len(pts)
	en := edgeNormals(pts)
	out := make([]geom.Vec, n)
	for i := 0; i < n; i++ {
		prev := en[(i+n-1)%n]
		sum := prev.Add(en[i])
		if sum.Len() < 1e-12 {
			// 180-degree turn (knife edge): fall back to the edge tangent.
			sum = pts[(i+1)%n].Sub(pts[i])
		}
		out[i] = sum.Unit()
	}
	return out
}

// turnAngle returns the exterior turn angle at vertex i of a loop in
// radians, given the loop's edge normals en: the angle between the two
// adjacent ones. Zero for straight segments; approaches pi at a knife-edge
// cusp.
func turnAngle(en []geom.Vec, i int) float64 {
	return en[(i+len(en)-1)%len(en)].AngleBetween(en[i])
}

// Convex reports whether vertex i of the CCW loop is convex (the body
// bulges into the fluid there). Fans are only emitted at convex cusps:
// at a concave corner the angular wedge between the adjacent normals
// passes through the body, so interpolated fan directions would too.
func Convex(pts []geom.Point, i int) bool {
	n := len(pts)
	return geom.Orient2DSign(pts[(i+n-1)%n], pts[i], pts[(i+1)%n]) > 0
}

// Generate builds the boundary layers of every surface loop in the graph
// and resolves self- and multi-element intersections.
func Generate(g *pslg.Graph, p Params) []*Layer {
	layers := GenerateRays(g, p)
	for _, l := range layers {
		l.InsertPoints(p)
	}
	return layers
}

// GenerateRays runs every stage up to (but excluding) point insertion:
// surface refinement, ray construction with fans, and self- and
// multi-element intersection resolution. The caller then inserts points
// with Layer.InsertPoints; the points follow from the trimmed rays
// deterministically, so every process that holds the rays can insert them.
func GenerateRays(g *pslg.Graph, p Params) []*Layer {
	layers := make([]*Layer, len(g.Surfaces))
	for i := range g.Surfaces {
		layers[i] = generateElement(&g.Surfaces[i], p)
	}
	resolveMultiElement(layers, p)
	return layers
}

// generateElement computes the refined surface, rays and self-intersection
// trims of a single element (points are not inserted yet; multi-element
// resolution must run first).
func generateElement(loop *pslg.Loop, p Params) *Layer {
	l := &Layer{}
	l.Stats.OriginalVertices = len(loop.Points)

	refined := refineSurface(loop.Points, p, &l.Stats)
	l.Surface = pslg.Loop{Points: refined, Name: loop.Name}
	l.Rays = buildRays(refined, p, &l.Stats)
	resolveSelf(l, p)
	return l
}

// refineSurface inserts interpolated surface points between neighboring
// vertices whose vertex normals differ by more than MaxAngleDeg, unless the
// angle is concentrated at a cusp vertex (handled by fans later).
func refineSurface(pts []geom.Point, p Params, st *Stats) []geom.Point {
	n := len(pts)
	vn := VertexNormals(pts)
	en := edgeNormals(pts)
	maxAngle := p.MaxAngleDeg * math.Pi / 180
	cusp := p.CuspAngleDeg * math.Pi / 180
	var out []geom.Point
	for i := 0; i < n; i++ {
		out = append(out, pts[i])
		j := (i + 1) % n
		ang := vn[i].AngleBetween(vn[j])
		if ang <= maxAngle {
			continue
		}
		// If the angle is concentrated at a convex cusp at either endpoint,
		// the fan mechanism will cover it; skip edge subdivision.
		if (turnAngle(en, i) > cusp && Convex(pts, i)) || (turnAngle(en, j) > cusp && Convex(pts, j)) {
			continue
		}
		m := int(math.Ceil(ang/maxAngle)) - 1
		for k := 1; k <= m; k++ {
			t := float64(k) / float64(m+1)
			out = append(out, pts[i].Lerp(pts[j], t))
			st.InsertedVertices++
		}
	}
	return out
}

// buildRays creates one ray per refined surface vertex plus fans at cusp
// vertices.
func buildRays(pts []geom.Point, p Params, st *Stats) []Ray {
	n := len(pts)
	vn := VertexNormals(pts)
	en := edgeNormals(pts)
	cusp := p.CuspAngleDeg * math.Pi / 180
	fanStep := p.FanSpacingDeg * math.Pi / 180
	var rays []Ray
	for i := 0; i < n; i++ {
		tangential := (pts[i].Dist(pts[(i+n-1)%n]) + pts[i].Dist(pts[(i+1)%n])) / 2
		turn := turnAngle(en, i)
		if turn > cusp && Convex(pts, i) {
			// Fan of rays sweeping from the normal of the incoming edge to
			// the normal of the outgoing edge; directions by angular
			// interpolation, curving handled at insertion time.
			from := en[(i+n-1)%n]
			total := turn
			k := int(math.Ceil(total/fanStep)) + 1
			if k < 3 {
				k = 3
			}
			// Rotation sign: the outgoing normal is the incoming normal
			// rotated by +-turn; probe both.
			sign := 1.0
			if from.Rotate(total).Sub(en[i]).Len() > from.Rotate(-total).Sub(en[i]).Len() {
				sign = -1
			}
			for f := 0; f < k; f++ {
				t := float64(f) / float64(k-1)
				dir := from.Rotate(sign * total * t)
				rays = append(rays, Ray{
					Origin:      pts[i],
					Dir:         dir.Unit(),
					MaxLen:      math.Inf(1),
					Tangential:  tangential,
					Fan:         true,
					FanBisector: vn[i],
					SurfaceIdx:  i,
				})
				st.FanRays++
			}
			continue
		}
		rays = append(rays, Ray{
			Origin:     pts[i],
			Dir:        vn[i],
			MaxLen:     math.Inf(1),
			Tangential: tangential,
			SurfaceIdx: i,
		})
	}
	return rays
}

// fullLength returns the untrimmed extent of a ray: the growth offset of
// the last possible layer.
func fullLength(p Params) float64 {
	return p.Growth.Offset(p.MaxLayers - 1)
}

// raySegment returns the ray as a segment of its current allowed length,
// given the untrimmed extent full: fullLength is a math.Pow, so callers
// take it once per pass, not once per candidate pair.
func raySegment(r *Ray, full float64) geom.Segment {
	l := full
	if r.MaxLen < l {
		l = r.MaxLen
	}
	return geom.Segment{A: r.Origin, B: r.Origin.Add(r.Dir.Scale(l))}
}

// resolveSelf trims rays of one element against each other and against
// the element's own surface, using an ADT over extent boxes (paper
// section II.B, n log n). A ray crossing the surface (possible at deep
// concavities when it slips between the opposing wall's rays) is trimmed
// to half the distance so the opposing wall's layer keeps room.
func resolveSelf(l *Layer, p Params) {
	nr := len(l.Rays)
	full := fullLength(p)
	segs := make([]geom.Segment, nr)
	world := geom.EmptyBBox()
	for i := range l.Rays {
		segs[i] = raySegment(&l.Rays[i], full)
		world = world.Union(segs[i].BBox())
	}
	surf := l.Surface.Points
	ns := len(surf)
	tree := adt.NewForBox(world)
	for i := range segs {
		tree.InsertBox(segs[i].BBox(), i)
	}
	for k := 0; k < ns; k++ {
		s := geom.Segment{A: surf[k], B: surf[(k+1)%ns]}
		tree.InsertBox(s.BBox(), nr+k)
	}
	for i := range segs {
		ri := &l.Rays[i]
		tree.VisitOverlapping(segs[i].BBox(), func(j int) bool {
			if j >= nr {
				// Surface segment: skip the two segments adjacent to the
				// ray's origin vertex.
				k := j - nr
				if k == ri.SurfaceIdx || (k+1)%ns == ri.SurfaceIdx {
					return true
				}
				s := geom.Segment{A: surf[k], B: surf[(k+1)%ns]}
				si := raySegment(ri, full)
				q, _, ok := geom.SegmentIntersection(si, s)
				if !ok {
					return true
				}
				d := q.Dist(ri.Origin)
				if d < 1e-12*si.Len() {
					return true // grazing its own origin
				}
				if d/2 < ri.MaxLen {
					ri.MaxLen = d / 2
					l.Stats.SelfIntersections++
				}
				return true
			}
			if j <= i {
				return true
			}
			rj := &l.Rays[j]
			// Neighboring rays sharing the origin (fans) never intersect
			// away from the wall.
			if ri.Origin == rj.Origin {
				return true
			}
			si := raySegment(ri, full)
			sj := raySegment(rj, full)
			q, u, ok := geom.SegmentIntersection(si, sj)
			if !ok || geom.SegmentsIntersect(si, sj) == geom.SegTouch {
				return true
			}
			l.Stats.SelfIntersections++
			trim(ri, u*si.Len(), p)
			trim(rj, q.Dist(rj.Origin), p)
			return true
		})
	}
}

func trim(r *Ray, dist float64, p Params) {
	d := dist * p.TrimFactor
	if d < r.MaxLen {
		r.MaxLen = d
	}
}

// OuterBorder returns the current outer border polyline of the layer: the
// endpoint of each ray in order. Before point insertion this uses the
// allowed ray extents; after insertion it uses the last inserted point.
func (l *Layer) OuterBorder(p Params) []geom.Point {
	out := make([]geom.Point, 0, len(l.Rays))
	full := fullLength(p)
	for i := range l.Rays {
		if len(l.Points) == len(l.Rays) && len(l.Points[i]) > 0 {
			out = append(out, l.Points[i][len(l.Points[i])-1])
			continue
		}
		out = append(out, raySegment(&l.Rays[i], full).B)
	}
	return out
}

// resolveMultiElement trims each element's rays against the outer borders
// of every other element's boundary layer: candidate rays are pruned by
// the other layer's AABB with Cohen–Sutherland clipping, then by an ADT
// over the border segments' extent boxes, and finally tested exactly.
func resolveMultiElement(layers []*Layer, p Params) {
	if len(layers) < 2 {
		return
	}
	type border struct {
		segs []geom.Segment
		// surface flags segments that belong to the element surface rather
		// than the layer's outer border; hits there trim to half distance.
		surface []bool
		bb      geom.BBox
		tree    *adt.Tree
	}
	borders := make([]border, len(layers))
	for i, l := range layers {
		poly := l.OuterBorder(p)
		bb := geom.BBoxOf(poly)
		b := border{bb: bb}
		n := len(poly)
		for k := 0; k < n; k++ {
			b.segs = append(b.segs, geom.Segment{A: poly[k], B: poly[(k+1)%n]})
			b.surface = append(b.surface, false)
		}
		surf := l.Surface.Points
		ns := len(surf)
		for k := 0; k < ns; k++ {
			b.segs = append(b.segs, geom.Segment{A: surf[k], B: surf[(k+1)%ns]})
			b.surface = append(b.surface, true)
		}
		b.tree = adt.NewForBox(bb)
		for k := range b.segs {
			b.tree.InsertBox(b.segs[k].BBox(), k)
		}
		borders[i] = b
	}
	full := fullLength(p)
	for i, l := range layers {
		for j := range layers {
			if i == j {
				continue
			}
			bj := &borders[j]
			for ri := range l.Rays {
				r := &l.Rays[ri]
				rs := raySegment(r, full)
				// Stage 1: Cohen–Sutherland AABB pruning.
				if !clip.SegmentIntersectsBox(rs, bj.bb) {
					continue
				}
				// Stage 2: ADT extent-box query; stage 3: exact tests.
				trimmed := false
				bj.tree.VisitOverlapping(rs.BBox(), func(k int) bool {
					q, _, ok := geom.SegmentIntersection(rs, bj.segs[k])
					if ok {
						d := q.Dist(r.Origin)
						if bj.surface[k] {
							// Never reach the other body: stop halfway so
							// its own layer keeps room in the gap.
							if d/2 < r.MaxLen {
								r.MaxLen = d / 2
								trimmed = true
								rs = raySegment(r, full)
							}
						} else if d < r.MaxLen {
							trim(r, d, p)
							trimmed = true
							rs = raySegment(r, full)
						}
					}
					return true
				})
				if trimmed {
					l.Stats.MultiIntersections++
				}
			}
		}
	}
}

// InsertPoints fills Points along every ray according to the growth
// function, stopping at the trimmed length or at the isotropy cutoff
// (optionally smoothed across neighbors), and curving fan rays toward
// their bisector.
func (l *Layer) InsertPoints(p Params) {
	counts := PlanCounts(l, p)
	l.Points = make([][]geom.Point, len(l.Rays))
	for i := range l.Rays {
		l.Points[i] = InsertRay(&l.Rays[i], p, counts[i])
		l.Stats.TotalPoints += len(l.Points[i])
	}
}

// PlanCounts computes the (smoothed) number of layer points each ray will
// carry, accounting for trimmed lengths and the isotropy cutoff. It also
// updates the layer's TrimmedRays statistic.
func PlanCounts(l *Layer, p Params) []int {
	counts := make([]int, len(l.Rays))
	full := fullLength(p)
	for i := range l.Rays {
		r := &l.Rays[i]
		if r.MaxLen < full {
			l.Stats.TrimmedRays++
		}
		n := 0
		for k := 0; k < p.MaxLayers; k++ {
			if p.Growth.Offset(k) >= r.MaxLen {
				break
			}
			if p.IsotropyFactor > 0 && p.Growth.Spacing(k) >= p.IsotropyFactor*r.Tangential {
				break
			}
			n++
		}
		counts[i] = n
	}
	smoothCounts(counts, p.SmoothLayers)
	return counts
}

// InsertRay computes the count layer points of a single ray, the step
// InsertPoints takes for every ray once PlanCounts has planned the counts.
func InsertRay(r *Ray, p Params, count int) []geom.Point {
	pts := make([]geom.Point, 0, count)
	cur := r.Origin
	prevOffset := 0.0
	for k := 0; k < count; k++ {
		off := p.Growth.Offset(k)
		dir := r.Dir
		if r.Fan && p.FanCurving > 0 {
			// Blend toward the bisector with height: the fan curves
			// inward, as the wake physics dictate (Figure 4).
			t := p.FanCurving * float64(k) / float64(p.MaxLayers)
			dir = r.Dir.Scale(1 - t).Add(r.FanBisector.Scale(t)).Unit()
		}
		cur = cur.Add(dir.Scale(off - prevOffset))
		prevOffset = off
		pts = append(pts, cur)
	}
	return pts
}

// SetPoints installs ray points computed outside InsertPoints (by the
// benchmark's layer replay) and updates the statistics.
func (l *Layer) SetPoints(points [][]geom.Point) {
	l.Points = points
	l.Stats.TotalPoints = 0
	for _, pts := range points {
		l.Stats.TotalPoints += len(pts)
	}
}

// smoothCounts caps the cyclic neighbor-to-neighbor difference of the
// layer counts at limit, only ever reducing counts (a ray may always carry
// fewer layers than its own bound, never more). Iterates to a fixed point.
func smoothCounts(counts []int, limit int) {
	if limit <= 0 || len(counts) < 3 {
		return
	}
	n := len(counts)
	for changed := true; changed; {
		changed = false
		for i := 0; i < n; i++ {
			lo := counts[(i+n-1)%n]
			if c := counts[(i+1)%n]; c < lo {
				lo = c
			}
			if counts[i] > lo+limit {
				counts[i] = lo + limit
				changed = true
			}
		}
	}
}

// AllPoints gathers every inserted boundary-layer point of the layer,
// including the surface vertices. This mirrors the paper's gather of
// coordinates at the root before triangulation.
func (l *Layer) AllPoints() []geom.Point {
	out := make([]geom.Point, 0, l.Stats.TotalPoints+len(l.Surface.Points))
	out = append(out, l.Surface.Points...)
	for _, pts := range l.Points {
		out = append(out, pts...)
	}
	return out
}

// MaxAspectRatio estimates the largest anisotropy of the layer: the ratio
// of the tangential spacing to the first-layer normal spacing across all
// rays.
func (l *Layer) MaxAspectRatio(p Params) float64 {
	h0 := p.Growth.Spacing(0)
	worst := 0.0
	for i := range l.Rays {
		if len(l.Points[i]) == 0 {
			continue
		}
		if ar := l.Rays[i].Tangential / h0; ar > worst {
			worst = ar
		}
	}
	return worst
}
