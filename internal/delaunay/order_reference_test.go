package delaunay

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pamg2d/internal/geom"
)

// triangulateXOrder is the reference for point clouds: the insertion order
// the kernel used before it ordered clouds along a Hilbert curve. NewCap,
// InsertPoint in (X, Y) order, then Carve, as Build does.
func triangulateXOrder(t testing.TB, in Input) *Triangulation {
	t.Helper()
	bb := in.Frame
	if bb == (geom.BBox{}) || bb.Empty() {
		bb = geom.BBoxOf(in.Points)
	}
	tr := NewCap(bb, len(in.Points))
	pts := slices.Clone(in.Points)
	slices.SortStableFunc(pts, func(a, b geom.Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	for _, p := range pts {
		if _, err := tr.InsertPoint(p); err != nil && err != ErrDuplicate {
			t.Fatalf("reference: inserting %v: %v", p, err)
		}
	}
	tr.Carve(nil)
	return tr
}

// triangleSet returns a result's triangles as coordinate sextuples, each
// rotated to start at its least corner, sorted: equal for two results with
// the same triangles in any point, triangle or corner order.
func triangleSet(res *Result) [][6]float64 {
	less := func(a, b geom.Point) bool { return a.X < b.X || a.X == b.X && a.Y < b.Y }
	set := make([][6]float64, len(res.Triangles))
	for i, tri := range res.Triangles {
		k := 0
		for j := 1; j < 3; j++ {
			if less(res.Points[tri[j]], res.Points[tri[k]]) {
				k = j
			}
		}
		for j := range 3 {
			p := res.Points[tri[(k+j)%3]]
			set[i][2*j], set[i][2*j+1] = p.X, p.Y
		}
	}
	slices.SortFunc(set, compareTri)
	return set
}

func compareTri(a, b [6]float64) int { return slices.Compare(a[:], b[:]) }

// liveSet is triangleSet over every live triangle of tr, the four frame
// corners and the carved exterior included.
func liveSet(tr *Triangulation) [][6]float64 {
	live := &Result{Points: tr.pts}
	for _, t := range tr.tris {
		if !t.Dead {
			live.Triangles = append(live.Triangles, t.V)
		}
	}
	return triangleSet(live)
}

// sameTriangles fails the test unless Triangulate gives the reference's
// triangle set on in.
func sameTriangles(t *testing.T, name string, in Input) {
	t.Helper()
	got, err := Triangulate(in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	g, w := triangleSet(got), triangleSet(triangulateXOrder(t, in).Extract())
	if !slices.Equal(g, w) {
		only := 0
		for _, tri := range g {
			if _, found := slices.BinarySearchFunc(w, tri, compareTri); !found {
				only++
			}
		}
		t.Fatalf("%s: %d triangles against the reference's %d; %d of them not in the reference", name, len(g), len(w), only)
	}
}

// boundaryLayerStack is a boundary-layer-like point set: rays along the
// normals of a curved surface, each with 64 geometric layers (first height
// 3e-5, ratio 1.15), the way blayer stacks them on an airfoil.
func boundaryLayerStack(rays int) []geom.Point {
	const layers, h0, ratio = 64, 3e-5, 1.15
	surface := func(s float64) geom.Point { return geom.Pt(s, 0.3*s*(1-s)+0.05*math.Sin(7*s)) }
	var pts []geom.Point
	for i := range rays {
		s := float64(i) / float64(rays-1)
		p := surface(s)
		n := surface(s + 1e-6).Sub(surface(s - 1e-6)).Perp().Unit()
		off, h := 0.0, h0
		for range layers {
			pts = append(pts, p.Add(n.Scale(off)))
			off += h
			h *= ratio
		}
	}
	return pts
}

// TestPointCloudOrderMatchesXOrder holds Triangulate's Hilbert order to the
// x-order reference, triangle for triangle, on random-float clouds and on
// a boundary-layer stack given x-sorted, shuffled and in a wider frame.
func TestPointCloudOrderMatchesXOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{3, 4, 10, 100, 3000} {
		for range 3 {
			pts := make([]geom.Point, n)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*5-1, rng.Float64()*0.5)
			}
			sameTriangles(t, "random cloud", Input{Points: pts})
		}
	}

	stack := boundaryLayerStack(120)
	sorted := slices.Clone(stack)
	slices.SortFunc(sorted, func(a, b geom.Point) int {
		if c := cmp.Compare(a.X, b.X); c != 0 {
			return c
		}
		return cmp.Compare(a.Y, b.Y)
	})
	sameTriangles(t, "boundary-layer stack, x-sorted", Input{Points: sorted})
	shuffled := slices.Clone(stack)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	sameTriangles(t, "boundary-layer stack, shuffled", Input{Points: shuffled})
	frame := geom.BBox{Min: geom.Pt(-30, -30), Max: geom.Pt(31, 30)}
	sameTriangles(t, "boundary-layer stack, far-field frame", Input{Points: sorted, Frame: frame})
}

// TestHilbertOrder checks the key: on a 16×16 lattice consecutive points of
// the order are grid neighbours and every point comes once; a repeated
// call gives the same order; ties keep index order; and the radix sort
// agrees with a stable comparison sort.
func TestHilbertOrder(t *testing.T) {
	var lattice []geom.Point
	for x := range 16 {
		for y := range 16 {
			lattice = append(lattice, geom.Pt(float64(x), float64(y)))
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(lattice), func(i, j int) { lattice[i], lattice[j] = lattice[j], lattice[i] })
	order := hilbertOrder(lattice)
	seen := make([]bool, len(lattice))
	for k, i := range order {
		if seen[i] {
			t.Fatalf("index %d comes twice", i)
		}
		seen[i] = true
		if k == 0 {
			continue
		}
		a, b := lattice[order[k-1]], lattice[i]
		if math.Abs(a.X-b.X)+math.Abs(a.Y-b.Y) != 1 {
			t.Fatalf("positions %d and %d: %v then %v are not grid neighbours", k-1, k, a, b)
		}
	}
	if again := hilbertOrder(lattice); !slices.Equal(order, again) {
		t.Fatal("a second call orders the same points differently")
	}
	first := lattice[order[0]]
	if first != geom.Pt(0, 0) {
		t.Errorf("the curve starts at %v, want the box's lower left corner", first)
	}

	// Ties: duplicates and points of one grid cell come in index order.
	ties := []geom.Point{geom.Pt(1, 1), geom.Pt(0, 0), geom.Pt(0.5, 0.5), geom.Pt(1, 1), geom.Pt(0, 0), geom.Pt(0.5+1e-9, 0.5)}
	if got, want := hilbertOrder(ties), []int32{1, 4, 2, 5, 0, 3}; !slices.Equal(got, want) {
		t.Errorf("ties ordered %v, want %v", got, want)
	}
	// A flat input (one grid line) and a single repeated point.
	flat := []geom.Point{geom.Pt(3, 2), geom.Pt(1, 2), geom.Pt(2, 2)}
	if got, want := hilbertOrder(flat), []int32{1, 2, 0}; !slices.Equal(got, want) {
		t.Errorf("flat input ordered %v, want %v", got, want)
	}
	same := []geom.Point{geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(5, 5)}
	if got, want := hilbertOrder(same), []int32{0, 1, 2}; !slices.Equal(got, want) {
		t.Errorf("one repeated point ordered %v, want %v", got, want)
	}

	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5, 1000} {
		words := make([]uint64, n)
		for i := range words {
			// Narrow keys leave whole passes with one byte value.
			words[i] = uint64(rng.Uint32()>>uint(rng.Intn(32)))<<32 | uint64(i)
		}
		want := slices.Clone(words)
		slices.SortStableFunc(want, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
		if got := radixSortHigh(words, make([]uint64, n)); !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix sort disagrees with the stable comparison sort", n)
		}
	}
}

// FuzzPointCloudOrder triangulates decoded point clouds in Hilbert order
// and in the reference's x order. Lattices, duplicates and collinear runs
// are where cocircular ties let the two orders pick different diagonals,
// so the triangles may differ, and a tie with a frame corner moves a
// triangle between the mesh and the carved exterior. Both triangulations
// must be Delaunay with as many live triangles, and every triangle one has
// and the other lacks must have a fourth vertex on its circumcircle.
func FuzzPointCloudOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 64, 0, 64, 0, 64, 0}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(1))
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 2, 0, 3, 0, 3}, uint8(2))
	f.Add([]byte{9, 0, 200, 1, 17, 0, 3, 0, 44, 1, 50, 0, 2, 0, 2, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		if len(data) > 4*64 {
			return
		}
		var pts []geom.Point
		for i := 0; i+4 <= len(data); i += 4 {
			p := geom.Pt(fuzzCoord(data[i:]), fuzzCoord(data[i+2:]))
			switch shape & 3 {
			case 1: // a coarse lattice: cocircular squares everywhere
				p = geom.Pt(math.Round(p.X/4), math.Round(p.Y/4))
			case 2: // collinear runs: every point on one of three lines
				p.Y = float64(int(data[i]) % 3)
			case 3: // duplicates: every point also a second time
				pts = append(pts, p)
			}
			pts = append(pts, p)
		}
		if len(pts) < 3 {
			return
		}
		in := Input{Points: pts}
		got, err := Build(in)
		if err != nil {
			t.Fatal(err)
		}
		ref := triangulateXOrder(t, in)
		for name, tr := range map[string]*Triangulation{"Hilbert order": got, "x order": ref} {
			if err := tr.CheckDelaunay(true); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		gs, rs := liveSet(got), liveSet(ref)
		if len(gs) != len(rs) {
			t.Fatalf("%d live triangles in Hilbert order, %d in x order", len(gs), len(rs))
		}
		for _, side := range []struct {
			name        string
			tr          *Triangulation
			own, others [][6]float64
		}{{"Hilbert order", got, gs, rs}, {"x order", ref, rs, gs}} {
			for _, tri := range side.own {
				if _, found := slices.BinarySearchFunc(side.others, tri, compareTri); found {
					continue
				}
				a, b, c := geom.Pt(tri[0], tri[1]), geom.Pt(tri[2], tri[3]), geom.Pt(tri[4], tri[5])
				if !slices.ContainsFunc(side.tr.pts, func(p geom.Point) bool {
					return p != a && p != b && p != c && geom.InCircle(a, b, c, p) == 0
				}) {
					t.Fatalf("%s: triangle %v %v %v is not in the other order's triangulation, and no fourth vertex lies on its circumcircle", side.name, a, b, c)
				}
			}
		}
	})
}
