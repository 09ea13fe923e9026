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
// *core.PayloadError, and one it accepts gives either the kernel's error or
// a submesh the offset merge assembles.
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
		var pe *core.PayloadError
		if err != nil {
			if errors.As(err, &pe) && len(out) != 0 {
				t.Fatalf("refused %d floats but returned %d", len(vals), len(out))
			}
			return
		}
		if _, _, _, err := core.SubmeshToMesh(out); err != nil {
			t.Fatalf("accepted %d floats; the result does not assemble: %v", len(vals), err)
		}
	})
}
