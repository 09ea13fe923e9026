package core_test

import (
	"bytes"
	"testing"

	"pamg2d/internal/core"
)

// FuzzResultListDecode hammers the result-list packer — the one parser of
// the multi-process agreement's payload — with the task-result codec
// behind it: arbitrary bytes must never panic or allocate beyond their own
// size, and anything accepted must re-encode to the identical bytes.
func FuzzResultListDecode(f *testing.F) {
	for _, list := range core.RealResultLists(f) {
		f.Add(list)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	// One entry each: an empty task result (accepted), then three that must
	// be rejected, not panic — floats cut short of eight bytes, an entry
	// longer than the list, and a trailing byte after the last entry.
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{1, 0, 0, 0, 120, 0, 0, 0, 3, 0, 0, 0}, make([]byte, 112)...))
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, b []byte) {
		list, err := core.DecodeResultList(b)
		if err != nil {
			return
		}
		again, err := core.EncodeResultList(list)
		if err != nil {
			t.Fatalf("accepted list of %d entries does not re-encode: %v", len(list), err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(again))
		}
	})
}
