package adapt

import (
	"bytes"
	"testing"

	"pamg2d/internal/geom"
	"pamg2d/internal/metric"
)

// realBatches evaluates one chunk per operator kind on a small mesh and
// returns the encoded batches, cut to a few plans each: what evalRange
// really puts on the wire, short enough for the fuzzer to minimise.
func realBatches(t testing.TB) [][]byte {
	t.Helper()
	const keep = 3
	var out [][]byte
	iso := func(h float64) func(geom.Point) metric.M {
		return func(geom.Point) metric.M { return metric.Iso(h) }
	}
	for _, tc := range []struct {
		kind opKind
		f    func(geom.Point) metric.M // on the 1/8-pitch grid
		mid  bool                      // start the seed at a midpoint collapse
	}{
		{kind: opSplit, f: iso(0.04)},                // every edge overlong
		{kind: opCollapse, f: iso(0.186), mid: true}, // endpoint forms fail, the midpoint form plans
		{kind: opCollapse, f: iso(0.3)},              // endpoint forms plan
		// Fine along the grid's diagonals, so flipping them pays.
		{kind: opSwap, f: func(geom.Point) metric.M { return metric.FromSpacings(0.03, 0.125, geom.V(1, 1).Unit()) }},
		{kind: opSmooth, f: blSpec(t)}, // graded in y, so the weighted centroid is off the vertex
	} {
		m := egrid(t, 8)
		f := tc.f
		e := testEngine(t, m, metric.Analytic(m, f), Options{Resample: f})
		lo, hi := e.evalRange(tc.kind, 0, e.items(tc.kind), &e.bufs[0])
		for lo < hi && e.bufs[0].plans[lo].Mid != tc.mid {
			lo++
		}
		if lo == hi {
			t.Fatalf("%v: no plan of the wanted form to seed the fuzzer with", tc.kind)
		}
		b := &planBatch{Chunk: int32(tc.kind), Plans: e.bufs[0].plans[lo:min(hi, lo+keep)]}
		out = append(out, encodePlanBatch(b, nil))
	}
	return out
}

// FuzzPlanBatchDecode hammers the plan-batch decoder — what a rank's
// evaluation result crosses a wire as — with arbitrary bytes: it must
// never panic, and whatever it accepts must be safe for selection, commit
// and recycle to index with, re-encode to the same bytes, and measure
// itself (WireBytes, what the executor charges) at exactly their length.
func FuzzPlanBatchDecode(f *testing.F) {
	for _, b := range realBatches(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0})                               // an empty batch
	f.Add([]byte{3, 0, 0, 0, 255, 255, 255, 255})                       // a header promising 4G plans
	f.Add(append([]byte{3, 0, 0, 0, 1, 0, 0, 0}, make([]byte, 112)...)) // an all-zero plan: Kind 0
	f.Fuzz(func(t *testing.T, b []byte) {
		ref, err := decodePlanBatch(b)
		if err != nil {
			return
		}
		pb := ref.(*planBatch)
		for i := range pb.Plans {
			p := &pb.Plans[i]
			if p.Kind < opSplit || p.Kind > opSmooth || p.E < 0 || p.E > 2 || p.NDy < 0 || int(p.NDy) > len(p.Dy) {
				t.Fatalf("accepted plan %d with Kind %d, E %d, NDy %d", i, p.Kind, p.E, p.NDy)
			}
			for _, e := range []int8{p.Pat[0].E, p.Pat[1].E, p.Dy[0].KE, p.Dy[1].KE} {
				if e < -1 || e > 2 {
					t.Fatalf("accepted plan %d with a neighbor-word index %d", i, e)
				}
			}
		}
		if got := pb.WireBytes(); got != len(b) {
			t.Fatalf("accepted %d bytes, WireBytes says %d", len(b), got)
		}
		if again := encodePlanBatch(pb, nil); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(again))
		}
	})
}
