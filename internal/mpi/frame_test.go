package mpi

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// frameEqual compares the fields meaningful for f.kind.
func frameEqual(a, b frame) bool {
	if a.kind != b.kind || a.epoch != b.epoch {
		return false
	}
	switch a.kind {
	case frameMsg:
		return a.from == b.from && a.to == b.to && a.tag == b.tag &&
			a.codec == b.codec && bytes.Equal(a.payload, b.payload)
	case frameWorldClose:
		return a.rank == b.rank && a.cause == b.cause
	case frameWinPut:
		return a.win == b.win && a.slot == b.slot &&
			math.Float64bits(a.val) == math.Float64bits(b.val)
	case frameWinGet:
		return a.win == b.win && a.req == b.req && a.rank == b.rank
	case frameWinGetReply:
		if a.req != b.req || len(a.vals) != len(b.vals) {
			return false
		}
		for i := range a.vals {
			if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
				return false
			}
		}
		return true
	case frameHeartbeat:
		return a.rank == b.rank
	case frameRankDead:
		return a.rank == b.rank && a.cause == b.cause
	}
	return false
}

func randomFrame(rng *rand.Rand) frame {
	kinds := []byte{frameMsg, frameWorldClose, frameWinPut, frameWinGet,
		frameWinGetReply, frameHeartbeat, frameRankDead}
	f := frame{kind: kinds[rng.Intn(len(kinds))], epoch: rng.Uint64()}
	switch f.kind {
	case frameMsg:
		f.from = rng.Int31n(1 << 20)
		f.to = rng.Int31n(1 << 20)
		f.tag = rng.Int31n(1 << 20)
		f.codec = CodecID(rng.Intn(64))
		f.payload = make([]byte, rng.Intn(300))
		rng.Read(f.payload)
	case frameWorldClose:
		f.rank = rng.Int31n(100) - 1
		n := rng.Intn(maxCauseLen + 1)
		b := make([]byte, n)
		rng.Read(b)
		f.cause = string(b)
	case frameWinPut:
		f.win = rng.Int31n(1 << 10)
		f.slot = rng.Int31n(1 << 10)
		f.val = rng.NormFloat64()
	case frameWinGet:
		f.win = rng.Int31n(1 << 10)
		f.req = rng.Uint64()
		f.rank = rng.Int31n(1 << 20)
	case frameWinGetReply:
		f.req = rng.Uint64()
		f.vals = make([]float64, rng.Intn(40))
		for i := range f.vals {
			f.vals[i] = rng.NormFloat64()
		}
	case frameHeartbeat:
		f.rank = rng.Int31n(1 << 20)
	case frameRankDead:
		f.rank = rng.Int31n(1 << 20)
		n := rng.Intn(maxCauseLen + 1)
		b := make([]byte, n)
		rng.Read(b)
		f.cause = string(b)
	}
	return f
}

// TestFrameRoundTrip is the encode→decode property test over every frame
// kind: any frame appendFrame emits decodes back to an equal frame, both
// straight from the body and through the length-prefixed stream reader.
func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var scratch []byte
	for i := 0; i < 2000; i++ {
		f := randomFrame(rng)
		wire := appendFrame(nil, f)
		got, err := decodeFrameBody(wire[4:])
		if err != nil {
			t.Fatalf("iter %d kind %d: decode: %v", i, f.kind, err)
		}
		if !frameEqual(f, got) {
			t.Fatalf("iter %d kind %d: decode mismatch:\n  sent %+v\n  got  %+v", i, f.kind, f, got)
		}
		var sf frame
		sf, scratch, err = readFrame(bufio.NewReader(bytes.NewReader(wire)), scratch)
		if err != nil {
			t.Fatalf("iter %d kind %d: readFrame: %v", i, f.kind, err)
		}
		if !frameEqual(f, sf) {
			t.Fatalf("iter %d kind %d: stream decode mismatch", i, f.kind)
		}
	}
}

// TestFrameStreamRejects covers the malformed-prefix cases the fuzzer
// cannot reach through decodeFrameBody (it starts after the length).
func TestFrameStreamRejects(t *testing.T) {
	cases := map[string][]byte{
		"zero length":      binary.LittleEndian.AppendUint32(nil, 0),
		"oversized length": binary.LittleEndian.AppendUint32(nil, maxFrameLen+1),
		"truncated body":   append(binary.LittleEndian.AppendUint32(nil, 100), 1, 2, 3),
	}
	for name, wire := range cases {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(wire)), nil); err == nil {
			t.Errorf("%s: readFrame accepted malformed input", name)
		}
	}
}

// TestFrameDecodeRejects spot-checks the decoder's validation of the
// corruption classes the fuzzer explores at random.
func TestFrameDecodeRejects(t *testing.T) {
	msg := appendFrame(nil, frame{kind: frameMsg, from: 1, to: 0, tag: 3, payload: []byte("x")})[4:]
	badTag := append([]byte{}, msg...)
	binary.LittleEndian.PutUint32(badTag[17:], uint32(0xffffffff)) // tag = -1 on the wire
	reply := appendFrame(nil, frame{kind: frameWinGetReply, req: 9, vals: []float64{1, 2}})[4:]
	shortReply := reply[:len(reply)-8] // count says 2, one value follows
	cases := map[string][]byte{
		"empty body":        {},
		"unknown kind":      {99, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated header":  msg[:9],
		"negative tag":      badTag,
		"short win reply":   shortReply,
		"negative win slot": appendFrame(nil, frame{kind: frameWinPut, win: -2, slot: 0})[4:],
		"negative heartbeat rank": func() []byte {
			b := appendFrame(nil, frame{kind: frameHeartbeat, rank: 3})[4:]
			binary.LittleEndian.PutUint32(b[9:], uint32(0xffffffff)) // rank = -1
			return b
		}(),
		"truncated heartbeat": appendFrame(nil, frame{kind: frameHeartbeat, rank: 3})[4:11],
		"negative dead rank": func() []byte {
			b := appendFrame(nil, frame{kind: frameRankDead, rank: 2, cause: "gone"})[4:]
			binary.LittleEndian.PutUint32(b[9:], uint32(0xfffffffe)) // rank = -2
			return b
		}(),
		// appendFrame truncates oversized causes, so build the body by hand.
		"oversized death cause": func() []byte {
			b := []byte{frameRankDead}
			b = appendU64(b, 0)
			b = appendI32(b, 1)
			return append(b, bytes.Repeat([]byte{'x'}, maxCauseLen+1)...)
		}(),
		// Kinds 3-4, 6 and 9-11 are reserved (the barrier's enter and
		// release, the window accumulate op, the clock ping and pong, the
		// telemetry shipment): well-formed old frames must not decode.
		"retired barrier enter":   append([]byte{3}, make([]byte, 20)...),
		"retired barrier release": append([]byte{4}, make([]byte, 20)...),
		"retired win add":         append([]byte{6}, make([]byte, 24)...),
		"retired ping":            append([]byte{9}, make([]byte, 20)...),
		"retired pong":            append([]byte{10}, make([]byte, 24)...),
		"retired telemetry":       append([]byte{11}, make([]byte, 16)...),
	}
	for name, body := range cases {
		if _, err := decodeFrameBody(body); err == nil {
			t.Errorf("%s: decoder accepted malformed body", name)
		}
	}
}

// FuzzFrameDecode hammers the decoder with arbitrary bodies: it must
// never panic, and anything it accepts must re-encode to a body that
// decodes identically (the decoder defines the canonical form).
func FuzzFrameDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 16; i++ {
		f.Add(appendFrame(nil, randomFrame(rng))[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{frameMsg})
	f.Add([]byte{frameWinGetReply, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255})
	f.Add(appendFrame(nil, frame{kind: frameHeartbeat, rank: 2})[4:])
	f.Add(appendFrame(nil, frame{kind: frameRankDead, rank: 3, cause: "link to rank 3 failed: EOF"})[4:])
	f.Add([]byte{frameRankDead, 0, 0, 0, 0, 0, 0, 0, 0, 255, 255, 255, 255}) // negative dead rank
	f.Add([]byte{frameHeartbeat, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0})              // truncated heartbeat rank
	f.Add(append([]byte{3}, make([]byte, 20)...))                            // retired barrier enter
	f.Add(append([]byte{4}, make([]byte, 20)...))                            // retired barrier release
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrameBody(body)
		if err != nil {
			return
		}
		wire := appendFrame(nil, fr)
		again, err := decodeFrameBody(wire[4:])
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if !frameEqual(fr, again) {
			t.Fatalf("accepted frame not canonical:\n  first  %+v\n  second %+v", fr, again)
		}
	})
}
