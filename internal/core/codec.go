package core

// Wire codecs for the pipeline's by-reference result types, registered in
// the mpi block reserved for core (32–47). In-process they never run —
// results travel as pointers — but over a multi-process fabric every
// rank-to-root result send serializes through these, and the root's
// result re-distribution packs the collected list with the same entry
// codecs (encodeResultList) so both directions share one format.

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

const (
	codecTaskResult  mpi.CodecID = 32
	codecAuditResult mpi.CodecID = 33
	codecTelemetry   mpi.CodecID = 34
)

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

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func encodeAuditResultRef(ref any, dst []byte) []byte {
	r := ref.(*auditJobResult)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.job))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.wall))
	dst = binary.LittleEndian.AppendUint64(dst, r.allocs)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(r.count))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.violations)))
	for _, v := range r.violations {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Rank))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v.Element))
		dst = appendString(dst, v.Check)
		dst = appendString(dst, v.Detail)
	}
	return dst
}

// auditCursor walks an audit-result body with bounds checks; short input
// surfaces as err rather than a panic, because the bytes crossed a
// process boundary.
type auditCursor struct {
	b   []byte
	off int
	err error
}

func (c *auditCursor) u32() uint32 {
	if c.err != nil || c.off+4 > len(c.b) {
		c.err = fmt.Errorf("core: truncated audit result frame")
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *auditCursor) u64() uint64 {
	if c.err != nil || c.off+8 > len(c.b) {
		c.err = fmt.Errorf("core: truncated audit result frame")
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *auditCursor) str() string {
	n := int(c.u32())
	if c.err != nil || n < 0 || c.off+n > len(c.b) {
		if c.err == nil {
			c.err = fmt.Errorf("core: truncated audit result string")
		}
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

func decodeAuditResultRef(b []byte) (any, error) {
	c := &auditCursor{b: b}
	r := &auditJobResult{
		job:    int32(c.u32()),
		wall:   time.Duration(c.u64()),
		allocs: c.u64(),
		count:  int(int32(c.u32())),
	}
	nv := int(int32(c.u32()))
	if c.err != nil {
		return nil, c.err
	}
	if nv < 0 || nv > len(b) {
		return nil, fmt.Errorf("core: audit result claims %d violations in %d bytes", nv, len(b))
	}
	for i := 0; i < nv; i++ {
		v := audit.Violation{
			Rank:    int(int32(c.u32())),
			Element: int(int32(c.u32())),
		}
		v.Check = c.str()
		v.Detail = c.str()
		if c.err != nil {
			return nil, c.err
		}
		r.violations = append(r.violations, v)
	}
	if c.off != len(b) {
		return nil, fmt.Errorf("core: %d trailing bytes after audit result", len(b)-c.off)
	}
	return r, nil
}

func init() {
	mpi.RegisterCodec(codecTaskResult, &taskResult{}, encodeTaskResultRef, decodeTaskResultRef)
	mpi.RegisterCodec(codecAuditResult, &auditJobResult{}, encodeAuditResultRef, decodeAuditResultRef)
	// Telemetry snapshots (trace tracks + metrics) ship from worker
	// processes to rank 0 at the end of a run; the wire image lives in
	// internal/trace so the exporter and the codec cannot drift apart.
	mpi.RegisterCodec(codecTelemetry, &trace.Telemetry{},
		func(ref any, dst []byte) []byte { return ref.(*trace.Telemetry).AppendBinary(dst) },
		func(b []byte) (any, error) { return trace.DecodeTelemetry(b) },
	)
}

// encodeResultList packs a phase's collected results for the agreement's
// distribute leg, which keeps every process's pipeline state identical in
// multi-process runs: a u32 count, then per entry the u16 id of its
// registered mpi codec, a u32 length and the codec's encoding — the same
// bytes the entry crossed the wire in on its way to the root.
func encodeResultList(results []loadbal.Result) ([]byte, error) {
	n := 4
	for _, r := range results {
		if r != nil {
			n += 6 + r.WireBytes()
		}
	}
	dst := binary.LittleEndian.AppendUint32(make([]byte, 0, n), uint32(len(results)))
	for i, r := range results {
		head := len(dst)
		dst = append(dst, 0, 0, 0, 0, 0, 0)
		id, out, err := mpi.EncodeRef(r, dst)
		if err != nil {
			return nil, fmt.Errorf("core: result %d: %w", i, err)
		}
		dst = out
		binary.LittleEndian.PutUint16(dst[head:], uint16(id))
		binary.LittleEndian.PutUint32(dst[head+2:], uint32(len(dst)-head-6))
	}
	return dst, nil
}

// decodeResultList is encodeResultList's inverse. The bytes crossed a
// process boundary, so every length is checked against what is left
// before anything is allocated, and each entry goes through its codec's
// own validating decoder.
func decodeResultList(b []byte) ([]loadbal.Result, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("core: result list of %d bytes, want >= 4", len(b))
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if n > len(b)/6 {
		return nil, fmt.Errorf("core: result list claims %d entries in %d bytes", n, len(b))
	}
	out := make([]loadbal.Result, 0, n)
	for i := 0; i < n; i++ {
		if len(b) < 6 {
			return nil, fmt.Errorf("core: truncated result list at entry %d", i)
		}
		id := mpi.CodecID(binary.LittleEndian.Uint16(b))
		size := int(binary.LittleEndian.Uint32(b[2:]))
		b = b[6:]
		if size > len(b) {
			return nil, fmt.Errorf("core: result list entry %d claims %d of %d bytes", i, size, len(b))
		}
		ref, err := mpi.DecodeRef(id, b[:size])
		if err != nil {
			return nil, fmt.Errorf("core: result list entry %d: %w", i, err)
		}
		r, ok := ref.(loadbal.Result)
		if !ok {
			return nil, fmt.Errorf("core: result list entry %d decodes to %T, not a task result", i, ref)
		}
		out = append(out, r)
		b = b[size:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("core: %d trailing bytes after result list", len(b))
	}
	return out, nil
}
