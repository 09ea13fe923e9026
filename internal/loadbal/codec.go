package loadbal

// Wire codec for Task, registered with the mpi transport layer so steal
// grants — which travel as zero-copy Task references in-process — can
// cross a process boundary. The format is the stealing protocol's header
// (id, cost, flags, one form byte) followed by the Vals floats.

import (
	"encoding/binary"
	"fmt"
	"math"

	"pamg2d/internal/mpi"
)

// codecTask is loadbal's wire id in the block mpi reserves for it.
const codecTask mpi.CodecID = 16

// taskFormVals is the only payload form: little-endian float64s. The
// decoder rejects any other form byte.
const taskFormVals byte = 1

func encodeTaskRef(ref any, dst []byte) []byte {
	t := ref.(Task)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Cost))
	var flags byte
	if t.BoundaryLayer {
		flags = 1
	}
	dst = append(dst, flags, taskFormVals)
	for _, v := range t.Vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

func decodeTaskRef(b []byte) (any, error) {
	if len(b) < 14 {
		return nil, fmt.Errorf("loadbal: task frame of %d bytes, want >= 14", len(b))
	}
	t := Task{
		ID:            int32(binary.LittleEndian.Uint32(b)),
		Cost:          math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		BoundaryLayer: b[12] != 0,
	}
	if b[13] != taskFormVals {
		return nil, fmt.Errorf("loadbal: unknown task payload form %d", b[13])
	}
	body := b[14:]
	if len(body)%8 != 0 {
		return nil, fmt.Errorf("loadbal: task vals of %d bytes not a multiple of 8", len(body))
	}
	t.Vals = make([]float64, len(body)/8)
	for i := range t.Vals {
		t.Vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return t, nil
}

func init() {
	mpi.RegisterCodec(codecTask, Task{}, encodeTaskRef, decodeTaskRef)
}
