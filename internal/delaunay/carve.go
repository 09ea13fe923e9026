package delaunay

import "pamg2d/internal/geom"

// Carve classifies triangles as interior or exterior. Flood fill starts
// from the triangles incident to the auxiliary bounding-box corners and
// spreads across unconstrained edges, marking everything it reaches as
// outside; constrained (PSLG border) edges stop the flood. Then, for each
// hole seed point, the flood is repeated from the triangle containing it.
// This mirrors Triangle's behavior of eating concavities and holes from an
// initial triangulation of the convex region.
func (t *Triangulation) Carve(holes []geom.Point) {
	for i := range t.tris {
		t.tris[i].Outside = false
	}
	if !t.hasConstraints() {
		// Pure point-set triangulation: the exterior is exactly the set of
		// triangles using a frame corner (a triangle whose three vertices
		// are input points lies inside their convex hull), so no flood is
		// needed — and a flood would eat everything.
		for i := range t.tris {
			tr := &t.tris[i]
			if tr.Dead {
				continue
			}
			for k := 0; k < 3; k++ {
				if t.IsCorner(tr.V[k]) {
					tr.Outside = true
					break
				}
			}
		}
		t.carved = true
		return
	}
	// The flood's worklist is the star traversals' (they do not run
	// while it floods), seeded from the corners and the holes.
	stack := t.starStack[:0]
	for _, c := range t.corner {
		if ti := t.vtri[c]; ti != invalid && !t.tris[ti].Dead {
			stack = append(stack, ti)
		} else if ti := t.findIncident(c); ti != invalid {
			stack = append(stack, ti)
		}
	}
	for _, h := range holes {
		loc := t.locate(h)
		if loc.kind == locInside || loc.kind == locEdge {
			stack = append(stack, loc.t)
		}
	}
	for len(stack) > 0 {
		ti := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.tris[ti].Dead || t.tris[ti].Outside {
			continue
		}
		t.tris[ti].Outside = true
		tr := t.tris[ti]
		for e := int32(0); e < 3; e++ {
			if tr.C[e] {
				continue
			}
			nb := tr.N[e]
			if nb != invalid && !t.tris[nb].Dead && !t.tris[nb].Outside {
				stack = append(stack, nb)
			}
		}
	}
	t.starStack = stack[:0]
	t.carved = true
}

// hasConstraints reports whether any live triangle has a constrained edge.
func (t *Triangulation) hasConstraints() bool {
	for i := range t.tris {
		if t.tris[i].Dead {
			continue
		}
		if t.tris[i].C[0] || t.tris[i].C[1] || t.tris[i].C[2] {
			return true
		}
	}
	return false
}
