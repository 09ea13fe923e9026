package core

// Wire codecs for the pipeline's by-reference payloads, registered in the
// mpi block reserved for core (32–47): the one result type every
// distributed phase returns, *taskResult (id 34, once the end-of-run
// telemetry snapshot, stays reserved). In-process it never runs — results
// travel as pointers — but over a multi-process fabric every rank-to-root
// result send serializes through the task-result codec, and the root's
// result re-distribution packs the collected list from the same entry
// encoding (encodeResultList) so both directions share one format. The
// agreement's collect leg carries a worker's phase record (appendRecord).

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

const codecTaskResult mpi.CodecID = 32

// encodeTaskResultRef writes a u32 task id, the task's seconds as float64
// bits, then the result floats.
func encodeTaskResultRef(ref any, dst []byte) []byte {
	r := ref.(*taskResult)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.id))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.seconds))
	for _, v := range r.vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// decodeTaskResultRef is encodeTaskResultRef's inverse; seconds that are
// negative, NaN or infinite are refused.
func decodeTaskResultRef(b []byte) (any, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("core: task result frame of %d bytes, want >= 12", len(b))
	}
	secs := math.Float64frombits(binary.LittleEndian.Uint64(b[4:]))
	if !(secs >= 0) || math.IsInf(secs, 1) {
		return nil, fmt.Errorf("core: task result measures %v seconds", secs)
	}
	body := b[12:]
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("core: task result floats of %d bytes not a multiple of 8", len(body))
	}
	r := &taskResult{id: int32(binary.LittleEndian.Uint32(b)), seconds: secs}
	if n := len(body) / 8; n > 0 {
		r.vals = make([]float64, n)
		for i := range r.vals {
			r.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
		}
	}
	return r, nil
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
	// An entry is at least its length, a task id and its seconds.
	if n > len(b)/16 {
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
