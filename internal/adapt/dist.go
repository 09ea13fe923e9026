package adapt

// Distributed plan evaluation. Evaluation is the expensive phase of a
// pass (ring walks, metric lengths, quality integrals) and is
// embarrassingly parallel over frozen topology, so with Options.Ranks > 1
// each pass fans the evaluation chunks out as loadbal tasks over an
// in-process MPI world: ranks steal chunks off each other, evaluate them
// against the shared read-only topo, and ship the resulting plan batches
// to the root with a typed reference payload (CodecPlanBatch, so the
// batches also survive a wire transport byte-for-byte). The root
// reassembles batches by chunk id, which restores the exact order local
// evaluation would have produced — selection and commit then proceed
// exactly as in the local path, so Ranks is a throughput knob, never a
// result knob.

import (
	"context"
	"fmt"
	"math"

	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/metric"
	"pamg2d/internal/mpi"
)

// CodecPlanBatch is the wire codec id for *planBatch payloads. The adapt
// package takes the block 48–63, after core's 32–47.
const CodecPlanBatch mpi.CodecID = 48

// planBatch is one evaluation chunk's result in flight to the root: a
// window of the evaluating rank's evalBuf in process, one decoded slab
// after a wire crossing.
type planBatch struct {
	Chunk int32
	Plans []opPlan
}

func init() {
	mpi.RegisterCodec(CodecPlanBatch, (*planBatch)(nil), encodePlanBatch, decodePlanBatch)
}

// evaluateDist is evaluate with the chunk loop distributed over an
// in-process world through the shared scatter/collect executor. A rank
// runs its tasks one at a time, so rank r owns e.bufs[r] the way worker w
// does locally.
func (e *engine) evaluateDist(kind opKind) error {
	n := e.items(kind)
	chunks := (n + evalChunk - 1) / evalChunk
	ranks := e.opt.Ranks
	world := mpi.NewWorld(ranks)
	defer world.Close(nil)
	world.SetTracer(e.opt.Tracer)

	tasks := make([]loadbal.Task, chunks)
	for c := range tasks {
		tasks[c] = loadbal.Task{ID: int32(c), Cost: float64(min((c+1)*evalChunk, n) - c*evalChunk)}
	}
	lb := loadbal.DefaultOptions(float64(n), ranks)
	lb.Tracer = e.opt.Tracer
	batches, _, err := loadbal.Scatter(context.Background(), world, tasks, lb,
		func(c *mpi.Comm, t loadbal.Task) (loadbal.Result, error) {
			b := &e.bufs[c.Rank()]
			from := int(t.ID) * evalChunk
			lo, hi := e.evalRange(kind, from, min(from+evalChunk, n), b)
			// A later task may grow b.plans into a new array; this window
			// keeps the old one, which holds the same plans.
			return &planBatch{Chunk: t.ID, Plans: b.plans[lo:hi:hi]}, nil
		})
	if err != nil {
		return fmt.Errorf("adapt: distributed evaluation: %w", err)
	}
	// Walking the batches in chunk order restores the exact order local
	// evaluation produces.
	for _, b := range batches {
		e.addPlans(b.(*planBatch).Plans)
	}
	return nil
}

// --- wire codec ----------------------------------------------------------

func putU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putI32(dst []byte, v int32) []byte { return putU32(dst, uint32(v)) }

func putF64(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	return append(dst, byte(b), byte(b>>8), byte(b>>16), byte(b>>24),
		byte(b>>32), byte(b>>40), byte(b>>48), byte(b>>56))
}

// encodePlanBatch serializes a batch. Selection-time fields (newV,
// slots) never travel: they are assigned on the root.
func encodePlanBatch(ref any, dst []byte) []byte {
	b := ref.(*planBatch)
	dst = putI32(dst, b.Chunk)
	dst = putU32(dst, uint32(len(b.Plans)))
	for i := range b.Plans {
		p := &b.Plans[i]
		flags := byte(0)
		if p.Bnd {
			flags |= 1
		}
		if p.Mid {
			flags |= 2
		}
		dst = append(dst, byte(p.Kind), flags, byte(p.E), byte(p.NDy))
		dst = putF64(dst, p.Prio)
		dst = putI32(dst, p.T)
		dst = putI32(dst, p.V)
		dst = putI32(dst, p.Keep)
		dst = putF64(dst, p.Pos.X)
		dst = putF64(dst, p.Pos.Y)
		dst = putF64(dst, p.Met.XX)
		dst = putF64(dst, p.Met.XY)
		dst = putF64(dst, p.Met.YY)
		dst = putU32(dst, uint32(len(p.Cav)))
		for _, t := range p.Cav {
			dst = putI32(dst, t)
		}
		for _, pr := range p.Pat {
			dst = putI32(dst, pr.T)
			dst = append(dst, byte(pr.E))
		}
		for _, d := range p.Dy {
			dst = putI32(dst, d.D)
			dst = putI32(dst, d.K)
			dst = putI32(dst, d.R)
			dst = putI32(dst, d.W)
			dst = append(dst, byte(d.KE))
		}
	}
	return dst
}

type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := uint32(r.b[r.off]) | uint32(r.b[r.off+1])<<8 |
		uint32(r.b[r.off+2])<<16 | uint32(r.b[r.off+3])<<24
	r.off += 4
	return v
}

func (r *wireReader) i32() int32 { return int32(r.u32()) }

func (r *wireReader) f64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(r.b[r.off+i]) << (8 * i)
	}
	r.off += 8
	return math.Float64frombits(v)
}

func (r *wireReader) u8() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("adapt: truncated plan batch at byte %d of %d", r.off, len(r.b))
	}
}

// PlanFieldError reports a decoded plan whose field lies outside the range
// selection, commit and recycle index with (p.Dy[i] for i < NDy, v[p.E],
// n[Pat.E], n[Dy.KE]): such a batch is rejected at the wire, not found by
// a panic on the root.
type PlanFieldError struct {
	Plan  int    // position in the batch
	Field string // "Kind", "NDy", "E", "Pat[1].E", "Dy[0].KE", …
	Value int
}

func (e *PlanFieldError) Error() string {
	return fmt.Sprintf("adapt: plan %d of batch: %s = %d out of range", e.Plan, e.Field, e.Value)
}

// check validates the index-like fields of the i-th decoded plan.
func (p *opPlan) check(i int) error {
	bad := func(field string, v int) error { return &PlanFieldError{Plan: i, Field: field, Value: v} }
	switch {
	case p.Kind < opSplit || p.Kind > opSmooth:
		return bad("Kind", int(p.Kind))
	case p.NDy < 0 || int(p.NDy) > len(p.Dy):
		return bad("NDy", int(p.NDy))
	case p.E < 0 || p.E > 2:
		return bad("E", int(p.E))
	}
	for j := range p.Pat {
		if e := p.Pat[j].E; e < -1 || e > 2 {
			return bad(fmt.Sprintf("Pat[%d].E", j), int(e))
		}
	}
	for j := range p.Dy {
		if e := p.Dy[j].KE; e < -1 || e > 2 {
			return bad(fmt.Sprintf("Dy[%d].KE", j), int(e))
		}
	}
	return nil
}

// decodePlanBatch parses a batch into one plan slab and one cavity arena
// (every Cav is a window of it), whatever the number of plans.
func decodePlanBatch(b []byte) (any, error) {
	r := &wireReader{b: b}
	out := &planBatch{Chunk: r.i32()}
	n := r.u32()
	if r.err != nil {
		return nil, r.err
	}
	// A well-formed batch is its 8-byte header, planWireFixed bytes per
	// plan and 4 per cavity triangle: the length bounds the plan count,
	// and what the plans leave over is the size of the arena.
	cavBytes := int64(len(b)) - 8 - int64(n)*planWireFixed
	if cavBytes < 0 {
		return nil, fmt.Errorf("adapt: plan batch claims %d plans in %d bytes", n, len(b))
	}
	out.Plans = make([]opPlan, n)
	cav := make([]int32, 0, cavBytes/4)
	for i := range out.Plans {
		p := &out.Plans[i]
		p.Kind = opKind(r.u8())
		flags := r.u8()
		if flags&^3 != 0 {
			return nil, fmt.Errorf("adapt: plan %d carries unknown flag bits %#x", i, flags)
		}
		p.Bnd = flags&1 != 0
		p.Mid = flags&2 != 0
		p.E = int8(r.u8())
		p.NDy = int8(r.u8())
		p.Prio = r.f64()
		p.T = r.i32()
		p.V = r.i32()
		p.Keep = r.i32()
		p.Pos = geom.Pt(r.f64(), r.f64())
		p.Met = metric.M{XX: r.f64(), XY: r.f64(), YY: r.f64()}
		nc := r.u32()
		if r.err != nil {
			return nil, r.err
		}
		if uint64(nc) > uint64(cap(cav)-len(cav)) {
			return nil, fmt.Errorf("adapt: plan %d cavity claims %d triangles, the batch has room for %d", i, nc, cap(cav)-len(cav))
		}
		mark := len(cav)
		for j := uint32(0); j < nc; j++ {
			cav = append(cav, r.i32())
		}
		p.Cav = cav[mark:len(cav):len(cav)]
		for j := range p.Pat {
			p.Pat[j].T = r.i32()
			p.Pat[j].E = int8(r.u8())
		}
		for j := range p.Dy {
			p.Dy[j].D = r.i32()
			p.Dy[j].K = r.i32()
			p.Dy[j].R = r.i32()
			p.Dy[j].W = r.i32()
			p.Dy[j].KE = int8(r.u8())
		}
		if r.err != nil {
			return nil, r.err
		}
		if err := p.check(i); err != nil {
			return nil, err
		}
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("adapt: %d trailing bytes after plan batch", len(b)-r.off)
	}
	return out, nil
}

// planWireFixed is the encoded size of a plan minus its cavity list:
// 4 (kind, flags, e, ndy) + 8 (prio) + 12 (t, v, keep) + 16 (pos) +
// 24 (met) + 4 (cavity count) + 10 (patches) + 34 (dying refs).
const planWireFixed = 112

func (b *planBatch) TaskID() int32 { return b.Chunk }

// WireBytes is the serialized size of the batch, charged to the
// communication-volume statistics by the executor's SendRef.
func (b *planBatch) WireBytes() int {
	n := 8
	for i := range b.Plans {
		n += planWireFixed + 4*len(b.Plans[i].Cav)
	}
	return n
}
