package core

// Wire codecs for the pipeline's by-reference payloads, registered in the
// mpi block reserved for core (32–47): the one result type every
// distributed phase returns, *taskResult (id 34, once the end-of-run
// telemetry snapshot, stays reserved). In-process it never runs — results
// travel as pointers — but over a multi-process fabric every rank-to-root
// result send serializes through the task-result codec, and the root's
// result re-distribution packs the collected list from the same entry
// encoding (encodeResultList) so both directions share one format.

import (
	"encoding/binary"
	"fmt"
	"math"

	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
)

const codecTaskResult mpi.CodecID = 32

func encodeTaskResultRef(ref any, dst []byte) []byte {
	r := ref.(*taskResult)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.id))
	for _, v := range r.vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeTaskResultRef(b []byte) (any, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: task result frame of %d bytes, want >= 4", len(b))
	}
	body := b[4:]
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("core: task result floats of %d bytes not a multiple of 8", len(body))
	}
	r := &taskResult{id: int32(binary.LittleEndian.Uint32(b))}
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
	// An entry is at least its length and a task id.
	if n > len(b)/8 {
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
