package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refOrder is the comparator order: the indices of pts stably sorted by
// c, so ties keep index order.
func refOrder(pts []Point, c func(p, q Point) int) []int32 {
	out := make([]int32, len(pts))
	for i := range out {
		out[i] = int32(i)
	}
	slices.SortStableFunc(out, func(a, b int32) int { return c(pts[a], pts[b]) })
	return out
}

// refCompareFloat spells out cmp.Compare's float order: NaNs first and
// equal to each other, then <, so -0 equals +0.
func refCompareFloat(a, b float64) int {
	switch {
	case a != a && b != b:
		return 0
	case a != a || a < b:
		return -1
	case b != b || a > b:
		return 1
	}
	return 0
}

// checkOrder holds both radix orders to the comparator orders on pts, and
// Compare and CompareYX to the spelled-out order on neighbouring points.
func checkOrder(t *testing.T, pts []Point) {
	t.Helper()
	if got, want := OrderXY(pts), refOrder(pts, Compare); !slices.Equal(got, want) {
		t.Fatalf("%d points: OrderXY %v, comparator order %v", len(pts), got, want)
	}
	if got, want := OrderYX(pts), refOrder(pts, CompareYX); !slices.Equal(got, want) {
		t.Fatalf("%d points: OrderYX %v, comparator order %v", len(pts), got, want)
	}
	for i := 1; i < len(pts); i++ {
		p, q := pts[i-1], pts[i]
		want := refCompareFloat(p.X, q.X)
		if want == 0 {
			want = refCompareFloat(p.Y, q.Y)
		}
		if got := Compare(p, q); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", p, q, got, want)
		}
		if got, want := CompareYX(p, q), Compare(Pt(p.Y, p.X), Pt(q.Y, q.X)); got != want {
			t.Fatalf("CompareYX(%v, %v) = %d, want %d", p, q, got, want)
		}
	}
}

// transpose returns pts with X and Y exchanged, so long runs of one X
// become long runs of one Y.
func transpose(pts []Point) []Point {
	out := make([]Point, len(pts))
	for i, p := range pts {
		out[i] = Pt(p.Y, p.X)
	}
	return out
}

// TestOrder: the radix orders are the comparator orders on points with
// repeated coordinates, long runs of one major coordinate, both zeros,
// infinities, NaNs and subnormals.
func TestOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	special := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, -1e300, 3}
	for _, n := range []int{0, 1, 7, 5000} {
		pts := make([]Point, n)
		for i := range pts {
			coord := func() float64 {
				switch rng.Intn(4) {
				case 0:
					return special[rng.Intn(len(special))]
				case 1:
					return float64(rng.Intn(5)) // runs of one coordinate
				}
				return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
			pts[i] = Pt(coord(), coord())
		}
		checkOrder(t, pts)
		checkOrder(t, transpose(pts))
	}
}

// FuzzOrder: the radix orders are the comparator orders on raw bit
// patterns. Eight bytes are a coordinate; the X of point i is one of the
// first k+1 coordinates, in turn, so a small k gives long runs of one X,
// and the Y is the ith coordinate from the end. The transposed points run long
// in Y.
func FuzzOrder(f *testing.F) {
	var seed []byte
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-math.NaN(), math.SmallestNonzeroFloat64, -0x1p-1050, 1, 1, 2.5, -7, 1e308} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(seed, uint8(2))
	f.Add(seed, uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, k uint8) {
		var vals []float64
		for ; len(data) >= 8; data = data[8:] {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		pts := make([]Point, len(vals))
		for i := range pts {
			pts[i] = Pt(vals[i%(1+int(k)%len(vals))], vals[len(vals)-1-i])
		}
		checkOrder(t, pts)
		checkOrder(t, transpose(pts))
	})
}

// BenchmarkOrder orders a synthetic airfoil boundary-layer band: 45k
// points on 150 offset curves around an ellipse, so X and Y values rarely
// repeat but cluster tightly near the wall.
func BenchmarkOrder(b *testing.B) {
	const curves, around = 150, 300
	pts := make([]Point, 0, curves*around)
	for c := range curves {
		off := 1e-5 * math.Pow(1.05, float64(c))
		for k := range around {
			th := 2 * math.Pi * float64(k) / around
			pts = append(pts, Pt((0.5+off)*math.Cos(th)+0.5, (0.06+off)*math.Sin(th)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orderSink = OrderXY(pts)
		orderSink = OrderYX(pts)
	}
}

var orderSink []int32
