package adt

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"pamg2d/internal/geom"
)

func randBox(rng *rand.Rand, world geom.BBox, maxSize float64) geom.BBox {
	w, h := world.Width(), world.Height()
	x := world.Min.X + rng.Float64()*w
	y := world.Min.Y + rng.Float64()*h
	return geom.BBox{
		Min: geom.Pt(x, y),
		Max: geom.Pt(x+rng.Float64()*maxSize, y+rng.Float64()*maxSize),
	}
}

// overlapping collects the ids VisitOverlapping yields, in order.
func overlapping(t *Tree, q geom.BBox) []int {
	var out []int
	t.VisitOverlapping(q, func(id int) bool {
		out = append(out, id)
		return true
	})
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := Build(geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}, nil)
	if got := overlapping(tr, geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}); len(got) != 0 {
		t.Errorf("query on empty tree: %v", got)
	}
}

func TestSingleBox(t *testing.T) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	tr := Build(world, []geom.BBox{{Min: geom.Pt(2, 2), Max: geom.Pt(4, 4)}})
	if got := overlapping(tr, geom.BBox{Min: geom.Pt(3, 3), Max: geom.Pt(5, 5)}); len(got) != 1 || got[0] != 0 {
		t.Errorf("overlapping query: %v, want [0]", got)
	}
	if got := overlapping(tr, geom.BBox{Min: geom.Pt(5, 5), Max: geom.Pt(6, 6)}); len(got) != 0 {
		t.Errorf("disjoint query: %v, want []", got)
	}
	// Touching boundaries count.
	if got := overlapping(tr, geom.BBox{Min: geom.Pt(4, 4), Max: geom.Pt(6, 6)}); len(got) != 1 {
		t.Errorf("touching query: %v, want [0]", got)
	}
}

func TestDuplicateKeys(t *testing.T) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	b := geom.BBox{Min: geom.Pt(1, 1), Max: geom.Pt(2, 2)}
	boxes := make([]geom.BBox, 10)
	for i := range boxes {
		boxes[i] = b
	}
	if got := overlapping(Build(world, boxes), b); len(got) != 10 {
		t.Errorf("duplicate keys: found %d of 10", len(got))
	}
}

func TestOverlappingMatchesBruteForce(t *testing.T) {
	world := geom.BBox{Min: geom.Pt(-5, -5), Max: geom.Pt(15, 15)}
	rng := rand.New(rand.NewSource(11))
	boxes := make([]geom.BBox, 500)
	for i := range boxes {
		boxes[i] = randBox(rng, world, 3)
	}
	tr := Build(world, boxes)
	for trial := 0; trial < 200; trial++ {
		q := randBox(rng, world, 5)
		var want []int
		for i, b := range boxes {
			if b.Intersects(q) {
				want = append(want, i)
			}
		}
		got := overlapping(tr, q)
		sort.Ints(got)
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d ids, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v, want %v", trial, got, want)
			}
		}
	}
}

func TestBoxesOutsideRootRegion(t *testing.T) {
	// Boxes stored outside the declared root region must still be found.
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(1, 1)}
	boxes := []geom.BBox{
		{Min: geom.Pt(0.2, 0.2), Max: geom.Pt(0.3, 0.3)},
		{Min: geom.Pt(5, 5), Max: geom.Pt(6, 6)},
	}
	got := overlapping(Build(world, boxes), geom.BBox{Min: geom.Pt(4, 4), Max: geom.Pt(7, 7)})
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("outlier box: got %v, want [1]", got)
	}
}

func TestVisitEarlyStop(t *testing.T) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(10, 10)}
	b := geom.BBox{Min: geom.Pt(1, 1), Max: geom.Pt(2, 2)}
	boxes := make([]geom.BBox, 100)
	for i := range boxes {
		boxes[i] = b
	}
	count := 0
	Build(world, boxes).VisitOverlapping(b, func(id int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop: visited %d, want 5", count)
	}
}

// TestSegmentKeys: a segment's extent box is stored as the 4-D point
// (xmin, ymin, xmax, ymax), whichever way the segment runs.
func TestSegmentKeys(t *testing.T) {
	s := geom.Segment{A: geom.Pt(3, 1), B: geom.Pt(1, 4)}
	tr := Build(s.BBox(), []geom.BBox{s.BBox()})
	if k := tr.nodes[0].key; k != [dims]float64{1, 1, 3, 4} {
		t.Errorf("segment key = %v", k)
	}
}

func TestDegenerateRootRegion(t *testing.T) {
	// A root region with zero extent must not cause infinite descent.
	pt := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(0, 0)}
	boxes := make([]geom.BBox, 50)
	for i := range boxes {
		boxes[i] = pt
	}
	q := geom.BBox{Min: geom.Pt(-1, -1), Max: geom.Pt(1, 1)}
	if n := len(overlapping(Build(pt, boxes), q)); n != 50 {
		t.Errorf("degenerate region: found %d of 50", n)
	}
}

// Property: ADT range query agrees with brute force for random data.
func TestRangeQueryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
		boxes := make([]geom.BBox, 100)
		for i := range boxes {
			boxes[i] = randBox(rng, world, 10)
		}
		q := randBox(rng, world, 30)
		got := overlapping(Build(world, boxes), q)
		want := 0
		for _, b := range boxes {
			if b.Intersects(q) {
				want++
			}
		}
		return len(got) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestTreeConcurrentQueries: a built tree is read-only, so goroutines
// querying it at once each see the serial answer (run it under -race).
func TestTreeConcurrentQueries(t *testing.T) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	rng := rand.New(rand.NewSource(5))
	boxes := make([]geom.BBox, 2000)
	for i := range boxes {
		boxes[i] = randBox(rng, world, 4)
	}
	queries := make([]geom.BBox, 200)
	for i := range queries {
		queries[i] = randBox(rng, world, 8)
	}
	tr := Build(world, boxes)
	want := make([][]int, len(queries))
	for i, q := range queries {
		want[i] = overlapping(tr, q)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queries {
				i := (k + 50*g) % len(queries)
				got := overlapping(tr, queries[i])
				if !slices.Equal(got, want[i]) {
					errs <- "concurrent query differs from the serial one"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkADTBuild(b *testing.B) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	rng := rand.New(rand.NewSource(1))
	boxes := make([]geom.BBox, 4096)
	for i := range boxes {
		boxes[i] = randBox(rng, world, 2)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(world, boxes)
	}
}

func BenchmarkADTQueryVsBruteForce(b *testing.B) {
	world := geom.BBox{Min: geom.Pt(0, 0), Max: geom.Pt(100, 100)}
	rng := rand.New(rand.NewSource(1))
	boxes := make([]geom.BBox, 10000)
	for i := range boxes {
		boxes[i] = randBox(rng, world, 1)
	}
	tr := Build(world, boxes)
	q := randBox(rng, world, 5)
	b.Run("adt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			overlapping(tr, q)
		}
	})
	b.Run("brute", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var out []int
			for j, bx := range boxes {
				if bx.Intersects(q) {
					out = append(out, j)
				}
			}
			_ = out
		}
	})
}
