package delaunay

import (
	"fmt"

	"pamg2d/internal/geom"
)

// Input is a planar straight-line graph handed to the kernel: points, the
// constrained segments between them (as point-index pairs), and hole seed
// points. It mirrors Triangle's .poly input.
type Input struct {
	Points   []geom.Point
	Segments [][2]int32
	Holes    []geom.Point

	// Sorted is not read: the kernel chooses its own insertion order
	// (insertionOrder). The paper keeps subdomain vertices x-sorted so
	// Triangle can skip its sort; the decomposition here still keeps them
	// x-sorted for its own median splits, not for this kernel.
	Sorted bool

	// Frame, when non-empty, fixes the working bounding box. Parallel
	// decompositions pass the same global frame to every subdomain so that
	// convex-hull slivers survive or die identically in every leaf and in
	// a direct triangulation of the union.
	Frame geom.BBox
}

// Result is a finished mesh: the vertex coordinates and the interior
// triangles as index triples in counter-clockwise order. Vertex indices
// refer to Points, which lists vertices in first-encountered order and
// contains only vertices referenced by interior triangles.
type Result struct {
	Points    []geom.Point
	Triangles [][3]int32
	// Constrained marks, for each triangle edge (triangle i, edge j from
	// vertex j to j+1 mod 3), whether it lies on a constrained segment.
	Constrained [][3]bool
}

// NumTriangles returns the number of triangles in the result.
func (r *Result) NumTriangles() int { return len(r.Triangles) }

// Quality options for Refine.
type Quality struct {
	// MaxRadiusEdgeRatio bounds the circumradius-to-shortest-edge ratio;
	// sqrt(2) corresponds to Ruppert's 20.7 degree minimum angle. Zero
	// disables the quality bound.
	MaxRadiusEdgeRatio float64

	// MaxArea bounds every triangle's area. Zero disables it.
	MaxArea float64

	// SizeAt, when non-nil, returns the target triangle area at a point;
	// triangles larger than the target are split. This is Triangle's
	// user-defined area constraint used by the paper's sizing function.
	// It must be a pure function of the point: the refiner evaluates it at
	// most once each time it tests a triangle, which is when it seeds the
	// queue and when it pops the triangle, and never for a triangle that
	// was destroyed before its turn.
	SizeAt func(geom.Point) float64

	// SizeSlope, when positive, declares a slope L of SizeAt's square
	// root: |√SizeAt(p) − √SizeAt(q)| ≤ L·|p − q| for all p and q, up to a
	// relative rounding error of 2^-44 in each term wherever the targets
	// lie between 2^-800 and 2^800. The refiner then settles a triangle's
	// size test from SizeAt at the triangle's newest vertex, kept in a
	// small cache of recent vertices, and asks at a centroid only when
	// the bound cannot decide; the mesh is the one SizeAt alone gives.
	// Zero declares nothing and asks at every centroid.
	// sizing.Graded.Slope supplies it.
	SizeSlope float64

	// MaxPoints caps the total vertex count as a safety valve: Refine
	// returns an error when it is about to split with the cap reached. A
	// run that reaches the cap with nothing left to split, its queued
	// entries all gone or good, completes without one. Zero means no cap.
	MaxPoints int

	// NoSplitSegments prohibits inserting Steiner points on constrained
	// segments (Triangle's -Y switch). Circumcenters that would encroach a
	// segment are simply rejected and the offending triangle is left in
	// place. The graded decoupling method relies on this: shared borders
	// between subdomains must keep exactly their initial discretization so
	// independently refined neighbors stay conforming.
	NoSplitSegments bool
}

// Triangulate builds the constrained Delaunay triangulation of the input,
// carves holes and exterior area, and returns the mesh without refinement.
func Triangulate(in Input) (*Result, error) {
	var t Triangulation
	if err := t.Build(in); err != nil {
		return nil, err
	}
	return t.Extract(), nil
}

// TriangulateRefined builds the constrained Delaunay triangulation and
// refines it to the given quality.
func TriangulateRefined(in Input, q Quality) (*Result, error) {
	var t Triangulation
	if err := t.Build(in); err != nil {
		return nil, err
	}
	if err := t.Refine(q); err != nil {
		return nil, err
	}
	return t.Extract(), nil
}

// Build runs point insertion, segment recovery and carving, returning the
// live Triangulation for callers that need incremental access.
func Build(in Input) (*Triangulation, error) {
	t := new(Triangulation)
	if err := t.Build(in); err != nil {
		return nil, err
	}
	return t, nil
}

// Build empties t and builds the input into it: point insertion, segment
// recovery and carving. t keeps the backing arrays of its stores and
// scratch, so a workspace that builds one input after another allocates
// them again only when an input outgrows them. The triangulation depends
// on the input alone, never on what t held before. After an error t holds
// a partial triangulation that only the next Build may use.
func (t *Triangulation) Build(in Input) error {
	if len(in.Points) < 3 {
		return fmt.Errorf("delaunay: need at least 3 points, have %d", len(in.Points))
	}
	bb := in.Frame
	if bb == (geom.BBox{}) || bb.Empty() {
		bb = geom.BBoxOf(in.Points)
	}
	t.reset(bb, len(in.Points))

	// Insert points in spatially coherent order: along a Hilbert curve
	// without segments, by x with them (insertionOrder, which then also
	// enables the bin seed for the scattered queries that follow).
	order := insertionOrder(in, t)
	// vmap maps input point indices to triangulation vertex indices
	// (offset by the four frame corners, or aliased for duplicates).
	vmap := make([]int32, len(in.Points))
	for _, i := range order {
		v, err := t.InsertPoint(in.Points[i])
		if err == ErrDuplicate {
			vmap[i] = v
			continue
		}
		if err != nil {
			return fmt.Errorf("delaunay: inserting point %d %v: %w", i, in.Points[i], err)
		}
		vmap[i] = v
	}
	for _, s := range in.Segments {
		a, b := vmap[s[0]], vmap[s[1]]
		if a == b {
			continue
		}
		if err := t.InsertSegment(a, b); err != nil {
			return err
		}
	}
	t.Carve(in.Holes)
	return nil
}

// Extract converts the live triangulation into a compact Result holding
// only interior triangles and referenced vertices.
func (t *Triangulation) Extract() *Result {
	res, _ := t.extract(false)
	return res
}

// ExtractNeighbors is Extract plus each result triangle's neighbours:
// nb[i][e] is the index in Triangles of the triangle across edge e of
// triangle i (from vertex e to e+1 mod 3), or -1 where no interior
// triangle lies across it.
func (t *Triangulation) ExtractNeighbors() (res *Result, nb [][3]int32) {
	return t.extract(true)
}

func (t *Triangulation) extract(neighbors bool) (*Result, [][3]int32) {
	// A vertex's index in res.Points, -1 until it is met; with neighbors,
	// then a triangle's index in res.Triangles, -1 if it is not interior.
	n := len(t.pts)
	if neighbors {
		n += len(t.tris)
	}
	remap := make([]int32, n)
	for i := range remap {
		remap[i] = -1
	}
	remap, at := remap[:len(t.pts)], remap[len(t.pts):]
	nInterior := t.InteriorTriangles()
	res := &Result{
		Points:      make([]geom.Point, 0, len(t.pts)),
		Triangles:   make([][3]int32, 0, nInterior),
		Constrained: make([][3]bool, 0, nInterior),
	}
	for i := range t.tris {
		tr := t.tris[i]
		if tr.Dead || tr.Outside {
			continue
		}
		var tri [3]int32
		for k := 0; k < 3; k++ {
			v := tr.V[k]
			if remap[v] < 0 {
				remap[v] = int32(len(res.Points))
				res.Points = append(res.Points, t.pts[v])
			}
			tri[k] = remap[v]
		}
		if neighbors {
			at[i] = int32(len(res.Triangles))
		}
		res.Triangles = append(res.Triangles, tri)
		res.Constrained = append(res.Constrained, tr.C)
	}
	if !neighbors {
		return res, nil
	}
	nb := make([][3]int32, 0, len(res.Triangles))
	for i := range t.tris {
		if at[i] < 0 {
			continue
		}
		across := [3]int32{invalid, invalid, invalid}
		for k, ti := range t.tris[i].N {
			if ti != invalid {
				across[k] = at[ti]
			}
		}
		nb = append(nb, across)
	}
	return res, nb
}

// CheckDelaunay validates structural invariants; exposed for tests.
func (t *Triangulation) CheckDelaunay(full bool) error { return t.checkInvariants(full) }
