package core

// Wire codecs for the pipeline's by-reference payloads, registered in the
// mpi block reserved for core (32–47): the one result type every
// distributed phase returns, *taskResult (id 34, once the end-of-run
// telemetry snapshot, stays reserved). In-process it never runs — a result
// travels as a pointer to its submesh — but over a multi-process fabric
// every rank-to-root result send serializes through the task-result
// codec, and the root's result re-distribution packs the collected list
// from the same entry encoding (encodeResultList) so both directions share
// one format. The agreement's collect leg carries a worker's phase record
// (appendRecord).

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

const codecTaskResult mpi.CodecID = 32

// Header slots of a submesh's float layout.
const (
	subPoints = iota
	subShared
	subTriangles
	subEdges
	subHeader
)

// encodeTaskResultRef writes a u32 task id, the task's seconds as float64
// bits, then the submesh, every number a little-endian float64:
//
//	[np, ns, nt, ne, x0, y0 … (2·np), s0 … (ns), a0, b0, c0 … (3·nt), u0, v0, f0 … (3·ne)]
func encodeTaskResultRef(ref any, dst []byte) []byte {
	r := ref.(*taskResult)
	s := r.sub
	dst = binary.LittleEndian.AppendUint32(slices.Grow(dst, 12+8*s.floats()), uint32(r.id))
	put := func(v float64) { dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v)) }
	put(r.seconds)
	for _, n := range [subHeader]int{len(s.pts), len(s.shared), len(s.tris), len(s.edges)} {
		put(float64(n))
	}
	for _, p := range s.pts {
		put(p.X)
		put(p.Y)
	}
	for _, i := range s.shared {
		put(float64(i))
	}
	for _, t := range s.tris {
		put(float64(t[0]))
		put(float64(t[1]))
		put(float64(t[2]))
	}
	for _, e := range s.edges {
		put(float64(e.u))
		put(float64(e.v))
		put(float64(e.kind))
	}
	return dst
}

// decodeTaskResultRef is encodeTaskResultRef's inverse. The bytes come from
// another process, so it refuses seconds that are negative, NaN or
// infinite and checks everything AddSubmesh and the outer-boundary
// extraction rely on: the header's counts fill the frame exactly, shared
// indices ascend, every index is below the point count and every edge kind
// is open, seam or both.
func decodeTaskResultRef(b []byte) (any, error) {
	if len(b) < 12 || (len(b)-12)%8 != 0 {
		return nil, fmt.Errorf("core: task result frame of %d bytes is not an id, seconds and whole floats", len(b))
	}
	secs := math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	if !(secs >= 0) || math.IsInf(secs, 1) {
		return nil, fmt.Errorf("core: task result measures %v seconds", secs)
	}
	sub, err := decodeSubmesh(b[12:])
	if err != nil {
		return nil, err
	}
	return &taskResult{id: int32(binary.LittleEndian.Uint32(b)), seconds: secs, sub: sub}, nil
}

// decodeSubmesh reads a submesh's floats from b, checking the header
// against b's length before it allocates anything.
func decodeSubmesh(b []byte) (submesh, error) {
	n := len(b) / 8
	at := func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:])) }
	// index reads float i as an index below lim. It refuses -0 too, which
	// would decode as 0 and re-encode as +0.
	index := func(i, lim int) (int32, bool) {
		if v := at(i); v != 0 || !math.Signbit(v) {
			return wireIndex(v, lim)
		}
		return 0, false
	}
	if n < subHeader {
		return submesh{}, fmt.Errorf("core: submesh of %d floats has no header", n)
	}
	var c [subHeader]int32
	for k := range c {
		var ok bool
		if c[k], ok = index(k, math.MaxInt32); !ok {
			return submesh{}, fmt.Errorf("core: submesh header slot %d is %v, not a count", k, at(k))
		}
	}
	np, ns, nt, ne := int(c[subPoints]), int(c[subShared]), int(c[subTriangles]), int(c[subEdges])
	if want := subHeader + 2*int64(np) + int64(ns) + 3*int64(nt) + 3*int64(ne); ns > np || int64(n) != want {
		return submesh{}, fmt.Errorf("core: submesh header %v implies %d floats, at most the points shared; have %d", c, want, n)
	}
	s := submesh{pts: make([]geom.Point, np), shared: make([]int32, ns), tris: make([][3]int32, nt), edges: make([]leafEdge, ne)}
	off := subHeader
	for i := range s.pts {
		s.pts[i] = geom.Pt(at(off), at(off+1))
		off += 2
	}
	for k := range s.shared {
		i, ok := index(off, np)
		if !ok || k > 0 && i <= s.shared[k-1] {
			return submesh{}, fmt.Errorf("core: submesh shared entry %d is %v: not an ascending index below %d", k, at(off), np)
		}
		s.shared[k] = i
		off++
	}
	// triple reads the next triangle, or edge: two indices below np, then
	// an index below np or a kind below third.
	triple := func(third int) (t [3]int32, ok bool) {
		a, okA := index(off, np)
		b, okB := index(off+1, np)
		c, okC := index(off+2, third)
		off += 3
		return [3]int32{a, b, c}, okA && okB && okC
	}
	var ok bool
	for k := range s.tris {
		if s.tris[k], ok = triple(np); !ok {
			return submesh{}, fmt.Errorf("core: submesh triangle %d is %v: not indices below %d", k, [3]float64{at(off - 3), at(off - 2), at(off - 1)}, np)
		}
	}
	for k := range s.edges {
		if e, ok := triple(edgeKinds + 1); ok && e[2] != 0 {
			s.edges[k] = leafEdge{e[0], e[1], e[2]}
		} else {
			return submesh{}, fmt.Errorf("core: submesh edge %d is %v: not indices below %d and a kind in {1, 2, 3}", k, [3]float64{at(off - 3), at(off - 2), at(off - 1)}, np)
		}
	}
	return s, nil
}

// wireIndex converts a float of a vector that may come from another
// process to an index below n <= 2^31. Anything that is not such an index
// — NaN, infinite, negative, fractional, too large — is refused before the
// conversion, whose result Go leaves undefined for those.
func wireIndex(v float64, n int) (int32, bool) {
	if !(v >= 0 && v < float64(n)) {
		return 0, false
	}
	i := int32(v)
	return i, float64(i) == v
}

func init() {
	mpi.RegisterCodec(codecTaskResult, &taskResult{}, encodeTaskResultRef, decodeTaskResultRef)
}

// encodeResultList packs a phase's collected results for the agreement's
// distribute leg, which keeps every process's pipeline state identical in
// multi-process runs: a u32 count, then per entry a u32 length and the
// entry's task-result encoding — the same bytes the entry crossed the wire
// in on its way to the root.
func encodeResultList(results []loadbal.Result) ([]byte, error) {
	n := 4
	for _, r := range results {
		if r != nil {
			n += 4 + r.WireBytes()
		}
	}
	dst := binary.LittleEndian.AppendUint32(make([]byte, 0, n), uint32(len(results)))
	for i, r := range results {
		tr, ok := r.(*taskResult)
		if !ok {
			return nil, fmt.Errorf("core: result %d is a %T, not a task result", i, r)
		}
		head := len(dst)
		dst = encodeTaskResultRef(tr, append(dst, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(dst[head:], uint32(len(dst)-head-4))
	}
	return dst, nil
}

// decodeResultList is encodeResultList's inverse. The bytes crossed a
// process boundary, so every length is checked against what is left
// before anything is allocated, and each entry goes through the
// task-result codec's own validating decoder.
func decodeResultList(b []byte) ([]loadbal.Result, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: result list of %d bytes, want >= 4", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	// An entry is at least its length, id, seconds and submesh header.
	if n > len(b)/48 {
		return nil, fmt.Errorf("core: result list claims %d entries in %d bytes", n, len(b))
	}
	out := make([]loadbal.Result, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 4 {
			return nil, fmt.Errorf("core: truncated result list at entry %d", i)
		}
		size := int(binary.LittleEndian.Uint32(b))
		b = b[4:]
		if size > len(b) {
			return nil, fmt.Errorf("core: result list entry %d claims %d of %d bytes", i, size, len(b))
		}
		r, err := decodeTaskResultRef(b[:size])
		if err != nil {
			return nil, fmt.Errorf("core: result list entry %d: %w", i, err)
		}
		out = append(out, r.(*taskResult))
		b = b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after result list", len(b))
	}
	return out, nil
}

// recordLen is the size of the phase record on a worker's agreement leg:
// nine little-endian int64s — the rank, its balancer's tasks, busy and
// idle nanoseconds and steal requests, grants and receipts, then its
// world's message and byte counts.
const recordLen = 9 * 8

// appendRecord appends rank's phase record to dst.
func appendRecord(dst []byte, rank int, bs loadbal.Stats, msgs, bytes int64) []byte {
	for _, v := range [...]int64{int64(rank), int64(bs.Processed), int64(bs.Busy), int64(bs.IdleTime),
		int64(bs.StealRequests), int64(bs.StealsGranted), int64(bs.StealsGotten), msgs, bytes} {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// decodeRecord reads the phase record of the agreement leg rank `from`
// sent into *bs and returns its message and byte counts. The bytes crossed
// a process boundary: a record of the wrong length, naming another rank or
// holding a negative counter is refused, and *bs is left as it was.
func decodeRecord(b []byte, from int, bs *loadbal.Stats) (msgs, bytes int64, err error) {
	if len(b) != recordLen {
		return 0, 0, fmt.Errorf("core: phase record of %d bytes, want %d", len(b), recordLen)
	}
	var v [recordLen / 8]int64
	for i := range v {
		if v[i] = int64(binary.LittleEndian.Uint64(b[8*i:])); v[i] < 0 {
			return 0, 0, fmt.Errorf("core: phase record field %d is %d", i, v[i])
		}
	}
	if v[0] != int64(from) {
		return 0, 0, fmt.Errorf("core: rank %d sent the phase record of rank %d", from, v[0])
	}
	*bs = loadbal.Stats{Processed: int(v[1]), Busy: time.Duration(v[2]), IdleTime: time.Duration(v[3]),
		StealRequests: int(v[4]), StealsGranted: int(v[5]), StealsGotten: int(v[6])}
	return v[7], v[8], nil
}
