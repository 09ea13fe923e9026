package project

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"pamg2d/internal/geom"
)

// The comparator-sort decomposition the radix root and the one-pass split
// replaced, kept as the reference for their leaves and paths bit for bit.
// Its lower chain reads the flattened points sorted by (abscissa, lift),
// ties in store order: the tie order the split builds run by run.

func refCmpX(a, b Vertex) int { return geom.Compare(a.P, b.P) }
func refCmpY(a, b Vertex) int { return geom.CompareYX(a.P, b.P) }

func refNew(pts []geom.Point) *Subdomain {
	s := &Subdomain{Region: WholePlane()}
	s.XS = make([]Vertex, len(pts))
	for i, p := range pts {
		s.XS[i] = Vertex{P: p, ID: int32(i)}
	}
	slices.SortFunc(s.XS, refCmpX)
	uniq := s.XS[:0]
	for _, v := range s.XS {
		if len(uniq) == 0 || uniq[len(uniq)-1].P != v.P {
			uniq = append(uniq, v)
		}
	}
	s.XS = uniq
	s.YS = make([]Vertex, len(s.XS))
	copy(s.YS, s.XS)
	slices.SortFunc(s.YS, refCmpY)
	return s
}

func refSplitAxis(s *Subdomain, vertical bool) (left, right *Subdomain, path []PathEdge) {
	n := len(s.XS)
	if n < 2 {
		return s, nil, nil
	}
	var primary, secondary []Vertex
	if vertical {
		primary, secondary = s.XS, s.YS
	} else {
		primary, secondary = s.YS, s.XS
	}
	m := n / 2
	median := primary[m]
	flat := make([]geom.Point, len(secondary))
	order := make([]int32, len(secondary))
	for i, v := range secondary {
		dx := v.P.X - median.P.X
		dy := v.P.Y - median.P.Y
		lift := dx*dx + dy*dy
		if vertical {
			flat[i] = geom.Pt(v.P.Y, lift)
		} else {
			flat[i] = geom.Pt(v.P.X, lift)
		}
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(flat[a].X, flat[b].X), cmp.Compare(flat[a].Y, flat[b].Y))
	})
	hullIdx := lowerSorted(flat, order, nil)
	hullVerts := make([]Vertex, len(hullIdx))
	for i, hi := range hullIdx {
		hullVerts[i] = secondary[hi]
	}
	if len(hullVerts) > 1 {
		path = make([]PathEdge, 0, len(hullVerts)-1)
	}
	for i := 0; i+1 < len(hullVerts); i++ {
		path = append(path, PathEdge{hullVerts[i], hullVerts[i+1]})
	}
	isLeft := func(v Vertex) bool {
		if vertical {
			return geom.Compare(v.P, median.P) < 0
		}
		return geom.CompareYX(v.P, median.P) < 0
	}
	leftPrimary := primary[:m]
	rightPrimary := primary[m:]
	leftSecondary := make([]Vertex, 0, m)
	rightSecondary := make([]Vertex, 0, n-m)
	for _, v := range secondary {
		if isLeft(v) {
			leftSecondary = append(leftSecondary, v)
		} else {
			rightSecondary = append(rightSecondary, v)
		}
	}
	addLeft := make([]Vertex, 0, len(hullVerts))
	addRight := make([]Vertex, 0, len(hullVerts))
	for _, v := range hullVerts {
		if isLeft(v) {
			addRight = append(addRight, v)
		} else {
			addLeft = append(addLeft, v)
		}
	}
	left = &Subdomain{Region: s.Region, Depth: s.Depth + 1}
	right = &Subdomain{Region: s.Region, Depth: s.Depth + 1}
	if vertical {
		cut := median.P.X
		left.Region.MaxX = math.Min(left.Region.MaxX, cut)
		right.Region.MinX = math.Max(right.Region.MinX, cut)
		left.XS = refMergeSorted(leftPrimary, addLeft, refCmpX)
		right.XS = refMergeSorted(rightPrimary, addRight, refCmpX)
		left.YS = refMergeSorted(leftSecondary, addLeft, refCmpY)
		right.YS = refMergeSorted(rightSecondary, addRight, refCmpY)
	} else {
		cut := median.P.Y
		left.Region.MaxY = math.Min(left.Region.MaxY, cut)
		right.Region.MinY = math.Max(right.Region.MinY, cut)
		left.YS = refMergeSorted(leftPrimary, addLeft, refCmpY)
		right.YS = refMergeSorted(rightPrimary, addRight, refCmpY)
		left.XS = refMergeSorted(leftSecondary, addLeft, refCmpX)
		right.XS = refMergeSorted(rightSecondary, addRight, refCmpX)
	}
	return left, right, path
}

func refMergeSorted(base, extras []Vertex, cmp func(a, b Vertex) int) []Vertex {
	if len(extras) == 0 {
		return base
	}
	slices.SortFunc(extras, cmp)
	out := make([]Vertex, 0, len(base)+len(extras))
	i, j := 0, 0
	for i < len(base) && j < len(extras) {
		if cmp(base[i], extras[j]) < 0 {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, extras[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, extras[j:]...)
	return out
}

func refDecompose(root *Subdomain, opt Options) (leaves []*Subdomain, paths []PathEdge) {
	if opt.MinVerts < 2 {
		opt.MinVerts = 2
	}
	var rec func(s *Subdomain)
	rec = func(s *Subdomain) {
		if s.Len() < opt.MinVerts || (opt.MaxDepth > 0 && s.Depth >= opt.MaxDepth) {
			leaves = append(leaves, s)
			return
		}
		n := s.Len()
		vertical := s.CutVertical()
		if opt.ForceVertical {
			vertical = true
		}
		l, r, p := refSplitAxis(s, vertical)
		if r == nil || l.Len() >= n || r.Len() >= n {
			leaves = append(leaves, s)
			return
		}
		paths = append(paths, p...)
		rec(l)
		rec(r)
	}
	rec(root)
	return leaves, paths
}

// subdomainValue is a subdomain's observable content: what leaves and
// paths are compared by.
type subdomainValue struct {
	XS, YS []Vertex
	Region Rect
	Depth  int
}

func values(leaves []*Subdomain) []subdomainValue {
	out := make([]subdomainValue, len(leaves))
	for i, l := range leaves {
		out[i] = subdomainValue{XS: l.XS, YS: l.YS, Region: l.Region, Depth: l.Depth}
	}
	return out
}

// decompose runs a decomposition, turning a panic into its message.
func decompose(f func(*Subdomain, Options) ([]*Subdomain, []PathEdge), root *Subdomain, opt Options) (leaves []*Subdomain, paths []PathEdge, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	leaves, paths = f(root, opt)
	return leaves, paths, ""
}

// checkDecompose compares New+Decompose with the reference on pts, which
// must hold no two points equal under ==: the reference's comparator sort
// keeps an arbitrary one of a duplicate group. Neither may panic.
func checkDecompose(t *testing.T, pts []geom.Point, opt Options) {
	t.Helper()
	root, refRoot := New(pts), refNew(pts)
	if !reflect.DeepEqual(root.XS, refRoot.XS) || !reflect.DeepEqual(root.YS, refRoot.YS) {
		t.Fatalf("%d points: root differs from the reference", len(pts))
	}
	leaves, paths, failed := decompose(Decompose, root, opt)
	refLeaves, refPaths, refFailed := decompose(refDecompose, refRoot, opt)
	if failed != "" || refFailed != "" {
		t.Fatalf("%d points, %+v: panic %q, reference panic %q", len(pts), opt, failed, refFailed)
	}
	if !reflect.DeepEqual(values(leaves), values(refLeaves)) {
		t.Fatalf("%d points, %+v: %d leaves differ from the reference's %d", len(pts), opt, len(leaves), len(refLeaves))
	}
	if !reflect.DeepEqual(paths, refPaths) {
		t.Fatalf("%d points, %+v: paths differ from the reference", len(pts), opt)
	}
}

// tieCloud returns n distinct points on a coarse lattice, so that x and y
// values repeat, with a share of them moved to exact zero of either sign
// and the rest jittered off the lattice.
func tieCloud(rng *rand.Rand, n, side int) []geom.Point {
	seen := map[geom.Point]bool{}
	var pts []geom.Point
	for len(pts) < n {
		c := func() float64 {
			v := float64(rng.Intn(side) - side/2)
			switch rng.Intn(8) {
			case 0:
				v = math.Copysign(0, -1)
			case 1:
				v += rng.Float64()
			}
			return v
		}
		p := geom.Pt(c(), c())
		if !seen[p] {
			seen[p] = true
			pts = append(pts, p)
		}
	}
	return pts
}

// TestDecomposeMatchesReference pins the radix root and the one-pass
// split to the comparator-sort decomposition on clouds with x and y ties,
// signed zeros, and uniform data, at every cut rule.
func TestDecomposeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		pts := tieCloud(rng, 20+rng.Intn(600), 8+rng.Intn(40))
		checkDecompose(t, pts, Options{MinVerts: 2 + rng.Intn(30), MaxDepth: rng.Intn(8)})
		checkDecompose(t, pts, Options{MinVerts: 8, ForceVertical: true})
		checkDecompose(t, pts, Options{MinVerts: 2, MaxDepth: 6})
	}
	checkDecompose(t, randPts(1, 5000), Options{MinVerts: 16, MaxDepth: 6})
}

func FuzzDecompose(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	seed := make([]byte, 0, 256)
	for range 64 {
		seed = binary.LittleEndian.AppendUint32(seed, rng.Uint32())
	}
	f.Add(seed, uint8(2), uint8(3))
	f.Add(seed, uint8(16), uint8(0))
	f.Add([]byte{0, 0, 0, 1, 1, 0, 1, 1, 0x80, 0, 0, 0x80, 2, 2}, uint8(2), uint8(0x85))
	f.Fuzz(func(t *testing.T, data []byte, minVerts, depth uint8) {
		// Two bytes a point on a 16x16 lattice; the high bit of a byte
		// makes that coordinate negative, so 0x80 is -0.
		seen := map[geom.Point]bool{}
		var pts []geom.Point
		for ; len(data) >= 2; data = data[2:] {
			c := func(b byte) float64 {
				v := float64(b & 0x0f)
				if b&0x40 != 0 {
					v += 0.5
				}
				if b&0x80 != 0 {
					v = -v
				}
				return v
			}
			p := geom.Pt(c(data[0]), c(data[1]))
			if !seen[p] {
				seen[p] = true
				pts = append(pts, p)
			}
		}
		checkDecompose(t, pts, Options{MinVerts: int(minVerts % 32), MaxDepth: int(depth % 8), ForceVertical: depth&0x80 != 0})
	})
}

// TestDecomposeKeepsStoresSorted: at every depth a leaf's x-store is in
// geom.Compare order, its y-store in geom.CompareYX order, and the two
// hold the same vertices, on lattice clouds with ties and signed zeros.
func TestDecomposeKeepsStoresSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		pts := tieCloud(rng, 20+rng.Intn(800), 6+rng.Intn(30))
		opt := Options{MinVerts: 2 + rng.Intn(16), MaxDepth: rng.Intn(9), ForceVertical: trial%4 == 0}
		leaves, _, failed := decompose(Decompose, New(pts), opt)
		if failed != "" {
			t.Fatalf("trial %d, %d points, %+v: panic %q", trial, len(pts), opt, failed)
		}
		for k, l := range leaves {
			if !slices.IsSortedFunc(l.XS, refCmpX) || !slices.IsSortedFunc(l.YS, refCmpY) {
				t.Fatalf("trial %d, %+v: leaf %d (depth %d) has a store out of order", trial, opt, k, l.Depth)
			}
			ys := slices.Clone(l.YS)
			slices.SortFunc(ys, refCmpX)
			if !reflect.DeepEqual(ys, l.XS) {
				t.Fatalf("trial %d, %+v: leaf %d's stores hold different vertices", trial, opt, k)
			}
		}
	}
}

// TestDecomposeIndependentOfGOMAXPROCS: the leaves and the paths are the
// same, and nothing panics, whether no subtree, the root's two or eight
// are split concurrently, on uniform and lattice clouds.
func TestDecomposeIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	clouds := [][]geom.Point{randPts(2, 3000), tieCloud(rng, 2000, 40), tieCloud(rng, 600, 12)}
	for i, pts := range clouds {
		for _, opt := range []Options{{MinVerts: 16, MaxDepth: 6}, {MinVerts: 2}, {MinVerts: 8, ForceVertical: true}} {
			var want []subdomainValue
			var wantPaths []PathEdge
			for _, procs := range []int{1, 2, 8} {
				runtime.GOMAXPROCS(procs)
				leaves, paths, failed := decompose(Decompose, New(pts), opt)
				if failed != "" {
					t.Fatalf("cloud %d, %+v, GOMAXPROCS %d: panic %q", i, opt, procs, failed)
				}
				if procs == 1 {
					want, wantPaths = values(leaves), paths
					continue
				}
				if !reflect.DeepEqual(values(leaves), want) || !reflect.DeepEqual(paths, wantPaths) {
					t.Fatalf("cloud %d, %+v, GOMAXPROCS %d: leaves or paths differ from GOMAXPROCS 1", i, opt, procs)
				}
			}
		}
	}
}

// TestDecomposeForkedPanic: half of a wide cloud lies in a tall strip
// right of the rest, and the root's y-sorted store keeps only the lowest
// and the highest of those points. The root's vertical split hands its
// right half a tall y-store far shorter than its x-store, so that half's
// horizontal split runs off the end of the y-store. With the right
// subtree forked, the caller recovers the same panic value as the
// sequential reference.
func TestDecomposeForkedPanic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	pts := make([]geom.Point, 400)
	rng := rand.New(rand.NewSource(6))
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if i%2 == 0 {
			pts[i].X = 100 + rng.Float64()
		}
	}
	broken := func(s *Subdomain) *Subdomain {
		cut := s.XS[len(s.XS)/2]
		var right []int
		for i, v := range s.YS {
			if geom.Compare(v.P, cut.P) >= 0 {
				right = append(right, i)
			}
		}
		ys := make([]Vertex, 0, len(s.YS))
		for i, v := range s.YS {
			if geom.Compare(v.P, cut.P) < 0 || i == right[0] || i == right[len(right)-1] {
				ys = append(ys, v)
			}
		}
		s.YS = ys
		return s
	}
	opt := Options{MinVerts: 2, MaxDepth: 8}
	_, _, refFailed := decompose(refDecompose, broken(refNew(pts)), opt)
	if refFailed == "" {
		t.Fatal("the reference does not panic on the broken root")
	}
	_, _, failed := decompose(Decompose, broken(New(pts)), opt)
	if failed != refFailed {
		t.Fatalf("panic %q, reference panic %q", failed, refFailed)
	}
}
