package pslg_test

// LoopIndex is held to Loop.Contains, the linear reference: same answer on
// every query, for the loops the pipeline indexes and for hostile ones.
// The package is external because the pipeline's loops come from airfoil
// and blayer, which import pslg.

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/geom"
	"pamg2d/internal/pslg"
)

// probes returns query points chosen to sit where a binned scan could
// differ from the linear one: at every vertex's exact height (on the
// vertex, beside it, and one ulp above and below), at edge midpoints, on
// horizontal edges, at the bounding box's corners, and outside the box.
func probes(l *pslg.Loop) []geom.Point {
	bb := l.BBox()
	w, h := bb.Width(), bb.Height()
	xs := []float64{bb.Min.X - w, bb.Min.X, (bb.Min.X + bb.Max.X) / 2, bb.Max.X, bb.Max.X + w}
	var out []geom.Point
	n := len(l.Points)
	for i, p := range l.Points {
		q := l.Points[(i+1)%n]
		mid := geom.Pt((p.X+q.X)/2, (p.Y+q.Y)/2)
		out = append(out, p, mid,
			geom.Pt(p.X-1e-9*w, p.Y), geom.Pt(p.X+1e-9*w, p.Y),
			geom.Pt(mid.X-1e-7*w, mid.Y), geom.Pt(mid.X+1e-7*w, mid.Y))
		for _, y := range []float64{p.Y, math.Nextafter(p.Y, math.Inf(1)), math.Nextafter(p.Y, math.Inf(-1))} {
			for _, x := range xs {
				out = append(out, geom.Pt(x, y))
			}
		}
		if p.Y == q.Y { // on a horizontal edge, and just past its ends
			out = append(out, geom.Pt(p.X+0.25*(q.X-p.X), p.Y), geom.Pt(q.X+(q.X-p.X), p.Y))
		}
	}
	for _, y := range []float64{bb.Min.Y - h, bb.Min.Y, bb.Max.Y, bb.Max.Y + h, math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, x := range xs {
			out = append(out, geom.Pt(x, y))
		}
	}
	// A lattice over the box and a margin around it.
	const k = 37
	for i := 0; i <= k; i++ {
		for j := 0; j <= k; j++ {
			out = append(out, geom.Pt(bb.Min.X-0.1*w+1.2*w*float64(i)/k, bb.Min.Y-0.1*h+1.2*h*float64(j)/k))
		}
	}
	return out
}

func checkIndex(t testing.TB, name string, l *pslg.Loop, queries []geom.Point) {
	t.Helper()
	ix := pslg.NewLoopIndex(l)
	inside := 0
	for _, q := range queries {
		want := l.Contains(q)
		if got := ix.Contains(q); got != want {
			t.Fatalf("%s (%d points): LoopIndex.Contains(%v) = %v, Loop.Contains = %v", name, len(l.Points), q, got, want)
		}
		if want {
			inside++
		}
	}
	if len(l.Points) >= 3 && l.BBox().Height() > 0 && len(queries) > 100 && (inside == 0 || inside == len(queries)) {
		t.Errorf("%s: %d of %d probes inside; the probes do not exercise the loop", name, inside, len(queries))
	}
}

// comb returns a loop of teeth spikes of full height over a flat base:
// 2*teeth+2 edges of which 2*teeth span the whole y-extent.
func comb(teeth int) pslg.Loop {
	pts := []geom.Point{geom.Pt(float64(teeth), -1), geom.Pt(0, -1)}
	for i := 0; i < teeth; i++ {
		pts = append(pts, geom.Pt(float64(i), 0), geom.Pt(float64(i)+0.5, 1))
	}
	return pslg.Loop{Name: "comb", Points: reversed(pts)}
}

func reversed(pts []geom.Point) []geom.Point {
	out := make([]geom.Point, len(pts))
	for i, p := range pts {
		out[len(pts)-1-i] = p
	}
	return out
}

func star(n int) pslg.Loop {
	pts := make([]geom.Point, 2*n)
	for i := range pts {
		r := 1.0
		if i%2 == 1 {
			r = 0.35
		}
		a := math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(0.3+r*math.Cos(a), -0.2+r*math.Sin(a))
	}
	return pslg.Loop{Name: "star", Points: pts}
}

func rotatedRect(w, h, angle float64) pslg.Loop {
	c, s := math.Cos(angle), math.Sin(angle)
	var pts []geom.Point
	for _, p := range []geom.Point{geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, h), geom.Pt(0, h)} {
		pts = append(pts, geom.Pt(c*p.X-s*p.Y, s*p.X+c*p.Y))
	}
	return pslg.Loop{Name: "rect", Points: pts}
}

// jagged returns a loop around the origin whose radius alternates
// between 1 and 3 from vertex to vertex: its summed rise is many times its
// height, so the registration estimate coarsens the table.
func jagged(n int) pslg.Loop {
	pts := make([]geom.Point, n)
	for i := range pts {
		r := 1.0 + 2*float64(i%2)
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(r*math.Cos(a), r*math.Sin(a))
	}
	return pslg.Loop{Name: "jagged", Points: pts}
}

// spiked returns a circle of n vertices with one vertex pulled out to
// height 200 above it and one to 150 below: the shape of a boundary-layer
// outer border whose few ray ends reach far out, whose y-extent is a
// hundred times the height the rest of the loop spans.
func spiked(n int) pslg.Loop {
	pts := make([]geom.Point, n)
	for i := range pts {
		a := 2 * math.Pi * float64(i) / float64(n)
		pts[i] = geom.Pt(math.Cos(a), math.Sin(a))
	}
	pts[n/4] = geom.Pt(0.1, 200)
	pts[3*n/4] = geom.Pt(-0.3, -150)
	return pslg.Loop{Name: "spiked", Points: pts}
}

// airfoilLoops returns the surfaces and far field of cfg and the surface
// and outer border of each of its boundary layers under bl.
func airfoilLoops(t testing.TB, cfg airfoil.Config, bl blayer.Params) (loops, outers []pslg.Loop, layers []*blayer.Layer) {
	t.Helper()
	g, err := cfg.Graph()
	if err != nil {
		t.Fatal(err)
	}
	loops = append(loops, g.Surfaces...)
	loops = append(loops, g.Farfield)
	layers = blayer.Generate(g, bl)
	for _, l := range layers {
		outer := pslg.Loop{Name: l.Surface.Name + "/outer", Points: l.OuterBorder(bl)}
		loops = append(loops, l.Surface, outer)
		outers = append(outers, outer)
	}
	return loops, outers, layers
}

func TestLoopIndexMatchesContains(t *testing.T) {
	loops := []pslg.Loop{
		star(7), star(64), comb(5), comb(300), jagged(64), jagged(501), spiked(40), spiked(300),
		rotatedRect(3, 1, 0), rotatedRect(3, 1, 0.3), rotatedRect(1e-3, 40, 1.1),
		{Name: "L", Points: []geom.Point{
			geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 2), geom.Pt(2, 2), geom.Pt(2, 4), geom.Pt(0, 4)}},
	}
	bl := blayer.DefaultParams()
	for _, cfg := range []airfoil.Config{
		airfoil.Single(airfoil.NACA0012, 96, 20),
		airfoil.ThreeElement(32), airfoil.ThreeElement(48), airfoil.ThreeElement(64), airfoil.ThreeElement(256),
	} {
		l, _, _ := airfoilLoops(t, cfg, bl)
		loops = append(loops, l...)
	}
	for i := range loops {
		l := &loops[i]
		checkIndex(t, l.Name, l, probes(l))
		// Clockwise loops take the other branch of the crossing test.
		cw := pslg.Loop{Name: l.Name + "/cw", Points: reversed(l.Points)}
		checkIndex(t, cw.Name, &cw, probes(&cw))
	}
}

// TestLoopIndexDegenerate: loops with no area, no height or non-finite
// coordinates answer like the linear scan and never divide by zero.
func TestLoopIndexDegenerate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	tiny := math.SmallestNonzeroFloat64
	loops := []pslg.Loop{
		{Name: "empty"},
		{Name: "one", Points: []geom.Point{geom.Pt(1, 1)}},
		{Name: "two", Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)}},
		{Name: "flat", Points: []geom.Point{geom.Pt(0, 2), geom.Pt(1, 2), geom.Pt(3, 2), geom.Pt(2, 2)}},
		{Name: "repeated", Points: []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}},
		{Name: "subnormal", Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(1, tiny), geom.Pt(0, tiny)}},
		{Name: "huge", Points: []geom.Point{geom.Pt(0, -1e308), geom.Pt(1, -1e308), geom.Pt(1, 1e308), geom.Pt(0, 1e308)}},
		{Name: "nan-y", Points: []geom.Point{geom.Pt(0, 0), geom.Pt(2, nan), geom.Pt(2, 2), geom.Pt(0, 2)}},
		{Name: "inf-y", Points: []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, inf), geom.Pt(0, 2)}},
		{Name: "neg-inf-y", Points: []geom.Point{geom.Pt(0, -inf), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}},
		{Name: "nan-x", Points: []geom.Point{geom.Pt(nan, 0), geom.Pt(2, 0), geom.Pt(2, 2), geom.Pt(0, 2)}},
		// (0, 0) is left of every vertex: the scan counts two crossings,
		// one of them on the vertical edge, whose orientation takes a
		// product that underflows to 0.
		{Name: "underflow", Points: []geom.Point{geom.Pt(1e-170, 0), geom.Pt(1, 1), geom.Pt(1e-170, 1e-170)}},
	}
	extra := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0.5, 0), geom.Pt(0.5, tiny), geom.Pt(0.5, 1e307), geom.Pt(1, 2), geom.Pt(1, nan), geom.Pt(nan, 1), geom.Pt(1, inf)}
	for i := range loops {
		l := &loops[i]
		queries := extra
		if len(l.Points) > 0 {
			queries = append(probes(l), extra...)
		}
		checkIndex(t, l.Name, l, queries)
	}
	under := pslg.Loop{Points: []geom.Point{geom.Pt(1e-170, 0), geom.Pt(1, 1), geom.Pt(1e-170, 1e-170)}}
	if under.Contains(geom.Pt(0, 0)) || pslg.NewLoopIndex(&under).Contains(geom.Pt(0, 0)) {
		t.Error("underflow: the loop contains (0, 0), left of every vertex")
	}
	for _, name := range []string{"empty", "one", "two", "flat", "repeated"} {
		for i := range loops {
			if loops[i].Name != name {
				continue
			}
			ix := pslg.NewLoopIndex(&loops[i])
			for _, q := range extra {
				if ix.Contains(q) {
					t.Errorf("%s: Contains(%v) = true on a loop without area", name, q)
				}
			}
		}
	}
}

// buildBytes returns the heap bytes one NewLoopIndex(l) allocates.
func buildBytes(l *pslg.Loop) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := pslg.NewLoopIndex(l)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ix)
	return after.TotalAlloc - before.TotalAlloc
}

// TestLoopIndexCombStaysLinear: a loop whose edges all span the full
// height would put every edge in every slab of a one-slab-per-edge table.
// The slab count must coarsen so the index stays within a constant number
// of bytes per edge, and the answers must still be the linear scan's.
func TestLoopIndexCombStaysLinear(t *testing.T) {
	// At most n+1 int32 offsets (4 bytes an edge) and 4 int32
	// registrations an edge (16), with slack for the allocator's rounding.
	const perEdge = 24
	for _, teeth := range []int{4096, 8192} {
		l := comb(teeth)
		n := uint64(len(l.Points))
		if got := buildBytes(&l); got > perEdge*n {
			t.Errorf("comb of %d teeth: index build allocated %d bytes, want <= %d (%d per edge); a quadratic table would be %d",
				teeth, got, perEdge*n, perEdge, 4*n*n)
		}
		// Every edge straddles most heights, so the linear reference costs
		// a full scan of exact tests per query: sample the probes.
		var queries []geom.Point
		for i, q := range probes(&l) {
			if i%211 == 0 {
				queries = append(queries, q)
			}
		}
		checkIndex(t, l.Name, &l, queries)
	}
	// The well-behaved case pays the same bound, and so do the loops whose
	// tables are narrowed or coarsened.
	g, err := airfoil.Single(airfoil.NACA0012, 768, 20).Graph()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []pslg.Loop{g.Surfaces[0], spiked(6000), jagged(6001)} {
		n := uint64(len(l.Points))
		if got := buildBytes(&l); got > perEdge*n {
			t.Errorf("%s of %d edges: index build allocated %d bytes, want <= %d", l.Name, n, got, perEdge*n)
		}
	}
}

// TestLoopIndexScanLength pins the edges a query scans on the loops the
// boundary-layer filter indexes most: the outer borders of
// ThreeElement(256)'s layers, queried at the layers' own points (the
// vertices of the triangles whose centroids the filter tests). The main
// element's and the flap's borders reach 12 chords up or down at a few ray
// ends while their other vertices span 0.15 in y; a table over the whole
// y-extent put those vertices in three or four slabs and scanned 96.5
// edges a query here (70 a query in a highlift-tcp benchmark run).
func TestLoopIndexScanLength(t *testing.T) {
	const want = 7.0 // mean edges scanned per scanning query
	_, outers, layers := airfoilLoops(t, airfoil.ThreeElement(256), blayer.DefaultParams())
	var queries []geom.Point
	for _, l := range layers {
		queries = append(queries, l.AllPoints()...)
	}
	scanned, edges := 0, 0
	for i := range outers {
		ix := pslg.NewLoopIndex(&outers[i])
		for _, q := range queries {
			if e, ok := ix.Scan(q); ok {
				scanned++
				edges += e
			}
		}
	}
	mean := float64(edges) / float64(scanned)
	t.Logf("%d queries scan %d of 3 outer borders, %.2f edges each", len(queries), scanned, mean)
	if mean > want {
		t.Errorf("%.2f edges scanned per query, want <= %.1f", mean, want)
	}
}

// TestLoopIndexConcurrentQueries: one built index is read by every rank's
// mesher goroutine at once; queries share no state.
func TestLoopIndexConcurrentQueries(t *testing.T) {
	_, outers, _ := airfoilLoops(t, airfoil.ThreeElement(64), blayer.DefaultParams())
	l := &outers[1]
	ix := pslg.NewLoopIndex(l)
	queries := probes(l)
	want := make([]bool, len(queries))
	for i, q := range queries {
		want[i] = l.Contains(q)
	}
	const goroutines = 4
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for k := range queries {
				i := (k + g*len(queries)/goroutines) % len(queries)
				if got := ix.Contains(queries[i]); got != want[i] {
					errs <- fmt.Errorf("Contains(%v) = %v, Loop.Contains = %v", queries[i], got, want[i])
					return
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// FuzzLoopIndexContains decodes a loop and query points from the input,
// 16 bytes a point, and holds the index to the linear scan. Coordinates
// are raw float64 bit patterns, so NaN, infinities, subnormals and
// repeated points all occur.
func FuzzLoopIndexContains(f *testing.F) {
	encode := func(pts ...geom.Point) []byte {
		var b []byte
		for _, p := range pts {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.X))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p.Y))
		}
		return b
	}
	// seed adds loop l followed by query points: its bounding box's centre
	// and corners, and points just outside it on either side.
	seed := func(l pslg.Loop) {
		bb := l.BBox()
		c := geom.Pt((bb.Min.X+bb.Max.X)/2, (bb.Min.Y+bb.Max.Y)/2)
		w := bb.Width()
		extra := []geom.Point{c, bb.Min, bb.Max, geom.Pt(bb.Min.X-w, c.Y), geom.Pt(bb.Max.X+w, c.Y),
			geom.Pt(math.Nextafter(bb.Min.X, math.Inf(-1)), c.Y), geom.Pt(math.Nextafter(bb.Max.X, math.Inf(1)), c.Y)}
		f.Add(uint16(len(l.Points)), encode(append(append([]geom.Point(nil), l.Points...), extra...)...))
	}
	s := star(5)
	c := comb(6)
	f.Add(uint16(10), encode(append(s.Points, geom.Pt(0.3, -0.2), geom.Pt(2, 0), geom.Pt(0.3, 0.8))...))
	f.Add(uint16(14), encode(append(c.Points, geom.Pt(0.5, 0.5), geom.Pt(1.25, 0.5), geom.Pt(3, -0.5))...))
	f.Add(uint16(3), encode(geom.Pt(0, 0), geom.Pt(1, math.NaN()), geom.Pt(0, 1), geom.Pt(0.2, 0.2)))
	f.Add(uint16(2), encode(geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(0.5, 0.5)))
	f.Add(uint16(3), encode(geom.Pt(1e-170, 0), geom.Pt(1, 1), geom.Pt(1e-170, 1e-170), geom.Pt(0, 0)))
	f.Add(uint16(0), []byte{})
	seed(jagged(40))
	seed(spiked(64))
	bl := blayer.DefaultParams()
	for _, n := range []int{32, 64, 256} {
		loops, _, _ := airfoilLoops(f, airfoil.ThreeElement(n), bl)
		for _, l := range loops {
			seed(l)
		}
	}
	f.Fuzz(func(t *testing.T, nLoop uint16, data []byte) {
		pts := make([]geom.Point, 0, len(data)/16)
		for ; len(data) >= 16; data = data[16:] {
			pts = append(pts, geom.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(data)),
				math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))))
		}
		// The reference costs O(loop) a query: bound the loop, the points
		// and the heights each extra point is tried at, so a mutated input
		// of a megabyte costs a fraction of a second.
		pts = pts[:min(len(pts), 2048)]
		k := min(int(nLoop), len(pts), 1024)
		l := pslg.Loop{Name: "fuzz", Points: pts[:k]}
		ix := pslg.NewLoopIndex(&l)
		queries := append([]geom.Point(nil), pts...) // the loop's own vertices are queries too
		for _, p := range pts[:k] {
			for _, q := range pts[k:min(len(pts), k+16)] {
				queries = append(queries, geom.Pt(q.X, p.Y))
			}
		}
		for _, q := range queries {
			if got, want := ix.Contains(q), l.Contains(q); got != want {
				t.Fatalf("loop %v: LoopIndex.Contains(%v) = %v, Loop.Contains = %v", l.Points, q, got, want)
			}
		}
	})
}
