package loadbal

// Wire codec for Task, registered with the mpi transport layer so steal
// grants — Task values in-process — can cross a process boundary. A frame
// is the header alone: the ID as a little-endian int32, the cost as a
// float64 and one flag byte; the thief runs the task from its own list.
// The control payloads of multi-process runs are plain byte messages,
// also laid out here.

import (
	"encoding/binary"
	"fmt"
	"math"

	"pamg2d/internal/mpi"
)

// codecTask is loadbal's wire id in the block mpi reserves for it.
const codecTask mpi.CodecID = 16

// taskFrame is the length of a Task's frame.
const taskFrame = 13

func encodeTaskRef(ref any, dst []byte) []byte { return appendTask(dst, ref.(Task)) }

// appendTask appends t's frame to dst.
func appendTask(dst []byte, t Task) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.ID))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(t.Cost))
	var flags byte
	if t.BoundaryLayer {
		flags = 1
	}
	return append(dst, flags)
}

// decodeTaskRef refuses a frame no process could send: another length, a
// flag byte but 0 or 1, a negative or non-finite cost (a NaN one would
// leave the thief's remaining work NaN: it would never steal again).
func decodeTaskRef(b []byte) (any, error) {
	if len(b) != taskFrame {
		return nil, fmt.Errorf("loadbal: task frame of %d bytes, want %d", len(b), taskFrame)
	}
	t := Task{
		ID:            int32(binary.LittleEndian.Uint32(b)),
		Cost:          math.Float64frombits(binary.LittleEndian.Uint64(b[4:])),
		BoundaryLayer: b[12] == 1,
	}
	if b[12] > 1 {
		return nil, fmt.Errorf("loadbal: task flag byte %d, want 0 or 1", b[12])
	}
	if !validCost(t.Cost) {
		return nil, fmt.Errorf("loadbal: task %d of cost %v, want finite and non-negative", t.ID, t.Cost)
	}
	return t, nil
}

// validCost reports whether c is finite and not negative.
func validCost(c float64) bool { return c >= 0 && c <= math.MaxFloat64 }

func init() {
	mpi.RegisterCodec(codecTask, Task{}, encodeTaskRef, decodeTaskRef)
}

// countMsg is a tagCount payload: the worker's task count as a
// little-endian int32 and its list's digest as a little-endian uint64, in
// a pooled buffer the root releases.
func countMsg(tasks int, digest uint64) []byte {
	b := mpi.GetBytes(countFrame)
	binary.LittleEndian.PutUint32(b, uint32(tasks))
	binary.LittleEndian.PutUint64(b[4:], digest)
	return b
}

// countFrame is the length of a countMsg.
const countFrame = 12

// decodeCount parses a countMsg.
func decodeCount(b []byte) (tasks int, digest uint64, err error) {
	if len(b) != countFrame {
		return 0, 0, fmt.Errorf("loadbal: task count of %d bytes, want %d", len(b), countFrame)
	}
	n := int32(binary.LittleEndian.Uint32(b))
	if n < 0 {
		return 0, 0, fmt.Errorf("loadbal: task count %d, want at least 0", n)
	}
	return int(n), binary.LittleEndian.Uint64(b[4:]), nil
}

// listDigest is the 64-bit FNV-1a hash of the tasks' frames in list
// order: ID, cost bits and flag of every header. Processes that built the
// same list compute the same digest.
func listDigest(tasks []Task) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	var frame [taskFrame]byte
	for _, t := range tasks {
		for _, c := range appendTask(frame[:0], t) {
			h ^= uint64(c)
			h *= prime
		}
	}
	return h
}

// completeMsg is a tagComplete payload: the finished task's ID as one
// little-endian int32, in a pooled buffer the root releases.
func completeMsg(id int32) []byte {
	b := mpi.GetBytes(4)
	binary.LittleEndian.PutUint32(b, uint32(id))
	return b
}

// movedMsg is a tagMoved payload: the granted task's ID and its new owner
// as two little-endian int32s, in a pooled buffer the root releases.
func movedMsg(id int32, owner int) []byte {
	b := mpi.GetBytes(8)
	binary.LittleEndian.PutUint32(b, uint32(id))
	binary.LittleEndian.PutUint32(b[4:], uint32(owner))
	return b
}

// decodeComplete parses a completeMsg of a run of tasks tasks.
func decodeComplete(b []byte, tasks int) (int32, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("loadbal: completion of %d bytes, want 4", len(b))
	}
	id := int32(binary.LittleEndian.Uint32(b))
	if id < 0 || int(id) >= tasks {
		return 0, fmt.Errorf("loadbal: completion of task %d, want [0, %d)", id, tasks)
	}
	return id, nil
}

// decodeMoved parses a movedMsg of a run of tasks tasks over ranks ranks.
func decodeMoved(b []byte, tasks, ranks int) (id, owner int32, err error) {
	if len(b) != 8 {
		return 0, 0, fmt.Errorf("loadbal: grant acknowledgement of %d bytes, want 8", len(b))
	}
	id = int32(binary.LittleEndian.Uint32(b))
	owner = int32(binary.LittleEndian.Uint32(b[4:]))
	if id < 0 || int(id) >= tasks {
		return 0, 0, fmt.Errorf("loadbal: grant acknowledgement of task %d, want [0, %d)", id, tasks)
	}
	if owner < 0 || int(owner) >= ranks {
		return 0, 0, fmt.Errorf("loadbal: task %d granted to rank %d, want [0, %d)", id, owner, ranks)
	}
	return id, owner, nil
}
