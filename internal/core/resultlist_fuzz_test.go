package core_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"pamg2d/internal/core"
	"pamg2d/internal/loadbal"
)

// FuzzResultListDecode hammers the result-list packer — the one parser of
// the multi-process agreement's payload — with the task-result codec
// behind it: arbitrary bytes must never panic or allocate beyond their own
// size, anything accepted must re-encode to the identical bytes, and no
// accepted entry measures negative, NaN or infinite seconds.
func FuzzResultListDecode(f *testing.F) {
	for _, list := range core.RealResultLists(f) {
		f.Add(list)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255})
	// One entry each, all rejected, not panicking: an entry cut short of
	// its seconds, floats cut short of eight bytes, an entry longer than
	// the list, and a trailing byte after the last entry.
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 8, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0})
	f.Add(append([]byte{1, 0, 0, 0, 120, 0, 0, 0, 3, 0, 0, 0}, make([]byte, 112)...))
	f.Add([]byte{1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0, 7})
	// An entry with no floats (accepted), then its seconds negative, NaN
	// and infinite (refused).
	for _, secs := range []float64{0.25, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		f.Add(oneEntryList(secs))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		list, err := core.DecodeResultList(b)
		if err != nil {
			return
		}
		for i, r := range list {
			if s := core.ResultSeconds(r); !(s >= 0) || math.IsInf(s, 0) {
				t.Fatalf("entry %d accepted with %v seconds", i, s)
			}
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

// oneEntryList is a result list holding task 9's result: secs, no floats.
func oneEntryList(secs float64) []byte {
	b := []byte{1, 0, 0, 0, 12, 0, 0, 0, 9, 0, 0, 0}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(secs))
}

// FuzzPhaseRecordDecode hammers the decoder of the phase record a worker's
// agreement leg carries: arbitrary bytes from an arbitrary sender must
// never panic, and a record is accepted only at its exact length, naming
// its sender, with no negative counter, and then re-encodes to the
// identical bytes.
func FuzzPhaseRecordDecode(f *testing.F) {
	good := core.AppendRecord(nil, 2, loadbal.Stats{
		Processed: 7, Busy: 30 * time.Millisecond, IdleTime: 4 * time.Millisecond,
		StealRequests: 3, StealsGranted: 1, StealsGotten: 2,
	}, 41, 123456)
	negative := core.AppendRecord(nil, 2, loadbal.Stats{StealsGotten: -1}, 41, 123456)
	f.Add(good, 2)
	f.Add(good, 1)                                  // another rank's record
	f.Add(good[:len(good)-1], 2)                    // short
	f.Add(append(good[:len(good):len(good)], 0), 2) // long
	f.Add(negative, 2)
	f.Add([]byte{}, 0)
	f.Fuzz(func(t *testing.T, b []byte, from int) {
		again, err := core.RecordRoundTrip(b, from)
		if err != nil {
			return
		}
		for off := 0; off < len(b); off += 8 {
			if v := int64(binary.LittleEndian.Uint64(b[off:])); v < 0 {
				t.Fatalf("record accepted with %d at byte %d", v, off)
			}
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes from rank %d re-encode to different bytes", len(b), from)
		}
	})
}
