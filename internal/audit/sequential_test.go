package audit

import (
	"slices"

	"pamg2d/internal/adt"
	"pamg2d/internal/geom"
	"pamg2d/internal/mesh"
)

// The checks in one pass each: conformity, boundary, the boundary-layer
// chain loop and decoupling each ran in a single pass over the whole
// snapshot before they were split into parts and a tail. With
// sequentialRun they are the reference the checks and the executor are
// held to, violation for violation and in the same order.

// whole names a single-pass check after the check it stands in for. Its
// Begin makes the pass and returns no parts.
type whole struct {
	name       string
	applicable func(*Snapshot) bool
}

func (w whole) Name() string                { return w.name }
func (w whole) Applicable(s *Snapshot) bool { return w.applicable(s) }

// sequentialChecks is All with the checks that share state between their
// parts in their single-pass form; orientation and delaunay, whose parts
// share none, run as one part under sequentialRun.
func sequentialChecks() []Check {
	return []Check{
		orientationCheck{},
		wholeConformity{whole{"conformity", func(*Snapshot) bool { return true }}},
		wholeBoundary{whole{"boundary", func(*Snapshot) bool { return true }}},
		delaunayCheck{},
		wholeBlayer{whole{"boundary-layer", func(s *Snapshot) bool { return len(s.Layers) > 0 }}},
		wholeDecoupling{whole{"decoupling", func(s *Snapshot) bool { return len(s.Paths) > 0 }}},
	}
}

type wholeConformity struct{ whole }

func (wholeConformity) Begin(s *Snapshot, rep *Reporter) Parts {
	m := s.Mesh
	orig := make([]int, len(m.Triangles))
	for i, t := range m.Triangles {
		orig[i] = -1
		if !wellFormed(m, t) {
			continue
		}
		orig[i] = i
		for _, run := range [2][]mesh.HalfEdge{s.edges.Find(t[0], t[1]), s.edges.Find(t[1], t[0])} {
			for _, k := range run {
				if j := k.Triangle(); j < orig[i] && slices.Contains(m.Triangles[j][:], t[2]) {
					orig[i] = j
				}
			}
		}
		if orig[i] != i {
			rep.Reportf(i, "duplicate of triangle %d", orig[i])
			continue
		}
		for e := 0; e < 3; e++ {
			u, v := t[e], t[(e+1)%3]
			for _, k := range s.edges.Find(u, v) {
				if j := k.Triangle(); orig[j] == j {
					if j != i {
						rep.Reportf(i, "directed edge (%d,%d) already used by triangle %d: overlapping elements", u, v, j)
					}
					break
				}
			}
		}
	}
	var suspect []uint64
	for u := range m.Points {
		out := s.edges.From(int32(u))
		for k, h := range out {
			if v := h.To(); k > 0 && out[k-1].To() == v || s.first[u] != int32(u) || s.first[v] != v {
				suspect = append(suspect, pairKey(s.first[u], s.first[v]))
			}
		}
	}
	slices.Sort(suspect)
	for _, key := range slices.Compact(suspect) {
		p, q := m.Points[key>>32], m.Points[uint32(key)]
		if n := s.uses(p, q); n > 2 {
			if geom.Compare(q, p) < 0 {
				p, q = q, p
			}
			rep.Reportf(-1, "edge %v-%v shared by %d triangles", p, q, n)
		}
	}
	for i, f := range s.first {
		if f != int32(i) {
			rep.Reportf(-1, "point %d duplicates point %d at %v", i, f, m.Points[i])
		}
	}
	for u := range m.Points {
		if !slices.ContainsFunc(s.edges.From(int32(u)), func(k mesh.HalfEdge) bool { return orig[k.Triangle()] >= 0 }) {
			rep.Reportf(-1, "orphan point %d at %v referenced by no triangle", u, m.Points[u])
		}
	}
	return done{}
}

type wholeBoundary struct{ whole }

func (wholeBoundary) Begin(s *Snapshot, rep *Reporter) Parts {
	out := make([][]int32, len(s.Mesh.Points))
	in := make([]int, len(s.Mesh.Points))
	for u := range out {
		for _, k := range s.edges.From(int32(u)) {
			if len(s.edges.Find(k.To(), int32(u))) == 0 {
				out[u] = append(out[u], k.To())
				in[k.To()]++
			}
		}
	}
	for v, succ := range out {
		if len(succ) > 0 && len(succ) != in[v] {
			owner := s.edges.Find(int32(v), succ[0])
			rep.Reportf(owner[len(owner)-1].Triangle(),
				"boundary vertex %d has %d outgoing / %d incoming boundary edges", v, len(succ), in[v])
		}
		if s.StrictDelaunay && len(succ) > 1 {
			rep.Reportf(-1, "boundary vertex %d pinched: %d boundary fans, want a simple hull loop", v, len(succ))
		}
	}
	for v, n := range in {
		if n > 0 && len(out[v]) == 0 {
			rep.Reportf(-1, "boundary vertex %d has %d incoming boundary edges but no outgoing one", v, n)
		}
	}
	if s.StrictDelaunay {
		loops := 0
		for u := range out {
			for ; len(out[u]) > 0; loops++ {
				for v := int32(u); len(out[v]) > 0; {
					next := out[v][len(out[v])-1]
					out[v] = out[v][:len(out[v])-1]
					v = next
				}
			}
		}
		if loops != 1 {
			rep.Reportf(-1, "boundary splits into %d loops, want a single convex hull loop", loops)
		}
	}
	for li, l := range s.Layers {
		pts := l.Surface.Points
		for i, p := range pts {
			q := pts[(i+1)%len(pts)]
			a, b := s.at(p), s.at(q)
			if len(a) == 0 {
				rep.Reportf(-1, "surface %d vertex %d at %v missing from mesh", li, i, p)
				continue
			}
			if len(b) == 0 {
				continue
			}
			if (len(s.edges.Find(a[0], b[0])) == 0) == (len(s.edges.Find(b[0], a[0])) == 0) {
				if uses := s.uses(p, q); uses > 0 {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) is an interior edge (%d triangles), not a boundary edge",
						li, i, p, q, uses)
				} else {
					rep.Reportf(-1, "surface %d segment %d (%v-%v) not recovered as a mesh boundary edge",
						li, i, p, q)
				}
			}
		}
	}
	return done{}
}

type wholeBlayer struct{ whole }

func (wholeBlayer) Begin(s *Snapshot, rep *Reporter) Parts {
	for li, l := range s.Layers {
		checkRayOrder(li, l, rep)
		checkMonotone(li, l, rep)
	}
	var segs []geom.Segment
	box := geom.EmptyBBox()
	add := func(a, b geom.Point) {
		if a == b {
			return
		}
		segs = append(segs, geom.Segment{A: a, B: b})
		box = box.Extend(a).Extend(b)
	}
	for _, l := range s.Layers {
		pts := l.Surface.Points
		for i := range pts {
			add(pts[i], pts[(i+1)%len(pts)])
		}
		for ri, chain := range l.Points {
			if ri >= len(l.Rays) {
				break
			}
			prev := l.Rays[ri].Origin
			for _, p := range chain {
				add(prev, p)
				prev = p
			}
		}
	}
	if len(segs) < 2 {
		return done{}
	}
	boxes := make([]geom.BBox, len(segs))
	for i, sg := range segs {
		boxes[i] = sg.BBox()
	}
	tree := adt.Build(box, boxes)
	for i, sg := range segs {
		tree.VisitOverlapping(boxes[i], func(j int) bool {
			if j <= i {
				return true
			}
			other := segs[j]
			switch geom.SegmentsIntersect(sg, other) {
			case geom.SegCross:
				rep.Reportf(-1, "extrusion chain segments cross: %v-%v and %v-%v",
					sg.A, sg.B, other.A, other.B)
			case geom.SegOverlap:
				rep.Reportf(-1, "extrusion chain segments collinearly overlap: %v-%v and %v-%v",
					sg.A, sg.B, other.A, other.B)
			case geom.SegTouch:
				if !shareEndpoint(sg, other) {
					rep.Reportf(-1, "extrusion chain segment touches another segment's interior: %v-%v and %v-%v",
						sg.A, sg.B, other.A, other.B)
				}
			}
			return true
		})
	}
	return done{}
}

type wholeDecoupling struct{ whole }

func (wholeDecoupling) Begin(s *Snapshot, rep *Reporter) Parts {
	for _, pe := range s.Paths {
		a, b := pe[0], pe[1]
		if a == b {
			continue
		}
		if len(s.at(a)) == 0 {
			rep.Reportf(-1, "path vertex %v missing from mesh", a)
			continue
		}
		if len(s.at(b)) == 0 {
			rep.Reportf(-1, "path vertex %v missing from mesh", b)
			continue
		}
		switch n := s.uses(a, b); {
		case n == 0:
			rep.Reportf(-1, "path edge %v-%v not a mesh edge: an element straddles the decoupling path", a, b)
		case n == 1 && !s.onFarfieldBorder(a, b):
			rep.Reportf(-1, "path edge %v-%v has one incident triangle: sectors disagree on the shared border", a, b)
		case n > 2:
			rep.Reportf(-1, "path edge %v-%v shared by %d triangles", a, b, n)
		}
	}
	return done{}
}
