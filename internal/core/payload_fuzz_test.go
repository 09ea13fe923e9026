package core_test

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"pamg2d/internal/core"
)

// FuzzTaskPayload feeds a task executor arbitrary float bit patterns in
// place of a task's payload — a stolen task's payload is another process's
// word. It must never panic: a vector the decoder refuses is a
// *core.PayloadError with an empty submesh, and one it accepts gives either
// the kernel's error or a submesh whose result frame the codec decodes and
// the offset merge assembles.
func FuzzTaskPayload(f *testing.F) {
	bytesOf := func(vals []float64) []byte {
		b := make([]byte, 0, 8*len(vals))
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	seeds, run := core.TaskPayloads(f)
	for _, vals := range seeds {
		f.Add(bytesOf(vals))
	}
	f.Add([]byte{})
	// Each kind cut to its first float, and headers that promise more than
	// follows.
	for kind := 0; kind <= core.KindInviscid; kind++ {
		f.Add(bytesOf([]float64{float64(kind)}))
		f.Add(bytesOf([]float64{float64(kind), 5, 1, 1, 0, 2}))
	}
	// A transition over a unit square with one corner moved 2^64 along x:
	// the kernel's walk-seed grid used to give such a flat box a row of
	// 6e9 cells.
	f.Add(bytesOf([]float64{core.KindTransition, 4, 4, 0, 0, 0, 0x1p64, 0, 1, 1, 0, 1, 0, 1, 1, 2, 2, 3, 3, 0}))
	f.Fuzz(func(t *testing.T, b []byte) {
		vals := make([]float64, len(b)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
		out, err := run(vals)
		m, _, _, merr := core.SubmeshToMesh(out)
		var pe *core.PayloadError
		if err != nil {
			if errors.As(err, &pe) && (merr != nil || m.NumPoints() != 0) {
				t.Fatalf("refused %d floats but returned a submesh (%v)", len(vals), merr)
			}
			return
		}
		if merr != nil {
			t.Fatalf("accepted %d floats; the result does not assemble: %v", len(vals), merr)
		}
	})
}
