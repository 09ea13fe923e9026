package mpi

// Wire framing for the TCP transport. Every unit on a connection after
// the handshake is one frame: a u32 little-endian body length followed by
// the body, whose first byte selects the kind. Point-to-point messages
// (frameMsg) carry the world epoch, source/destination ranks, tag, codec
// id, and payload; the remaining kinds are small control frames for world
// teardown, RMA window operations hosted on rank 0's process, and
// membership. appendFrame and decodeFrameBody are pure slice-in/slice-out
// inverses so the decoder can be fuzzed without a socket in sight.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Frame kinds. The zero value is invalid so a truncated or zeroed body
// never decodes as a real frame.
const (
	frameMsg byte = iota + 1
	frameWorldClose
	// Kinds 3 and 4 were the cross-process barrier's enter and release;
	// like 6 they stay reserved so the later kinds keep their wire values,
	// and the decoder rejects them.
	_
	_
	frameWinPut
	// Kind 6 was the window accumulate op.
	_
	frameWinGet
	frameWinGetReply
	// Kinds 9-11 were the clock ping, its pong and the telemetry shipment,
	// which now travel as ordinary messages; they stay reserved like 6.
	_
	_
	_
	// frameHeartbeat is a node-level keepalive carrying the sender's rank:
	// each process sends one to every live peer on a fixed interval so the
	// read-deadline-based death detector has traffic to observe even while
	// a link is idle through a long compute phase. No world epoch
	// semantics; receivers consume it silently.
	frameHeartbeat
	// frameRankDead is a membership event: the sender has declared `rank`
	// dead (link error or heartbeat timeout) with a bounded cause text.
	// Receivers fold it into their own membership view so the fabric
	// converges on the new live set without every node waiting out its own
	// timeout.
	frameRankDead
)

// maxFrameLen caps a frame body; decoders reject anything larger before
// allocating, so a corrupt length prefix cannot OOM the process.
const maxFrameLen = 1 << 30

// maxCauseLen bounds the error text shipped in a world-close frame.
const maxCauseLen = 1024

// frame is the decoded form of one wire unit. Only the fields relevant to
// the kind are populated; payload and cause are views into the decode
// input and must be copied before the buffer is reused.
type frame struct {
	kind  byte
	epoch uint64

	// frameMsg
	from    int32
	to      int32
	tag     int32
	codec   CodecID
	payload []byte

	// window ops (win = window index within the world, slot = element)
	win  int32
	slot int32
	val  float64

	// window get request matching
	req uint64

	// rank of the sender for control frames that need routing back
	rank int32

	// frameWorldClose
	cause string

	// frameWinGetReply snapshot (freshly allocated by the decoder)
	vals []float64
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

func appendI32(b []byte, v int32) []byte {
	return binary.LittleEndian.AppendUint32(b, uint32(v))
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// appendFrame appends f's complete wire image (length prefix included) to
// dst and returns the extended slice.
func appendFrame(dst []byte, f frame) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length patched below
	dst = append(dst, f.kind)
	dst = appendU64(dst, f.epoch)
	switch f.kind {
	case frameMsg:
		dst = appendI32(dst, f.from)
		dst = appendI32(dst, f.to)
		dst = appendI32(dst, f.tag)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(f.codec))
		dst = append(dst, f.payload...)
	case frameWorldClose:
		cause := f.cause
		if len(cause) > maxCauseLen {
			cause = cause[:maxCauseLen]
		}
		dst = appendI32(dst, f.rank)
		dst = append(dst, cause...)
	case frameWinPut:
		dst = appendI32(dst, f.win)
		dst = appendI32(dst, f.slot)
		dst = appendF64(dst, f.val)
	case frameWinGet:
		dst = appendI32(dst, f.win)
		dst = appendU64(dst, f.req)
		dst = appendI32(dst, f.rank)
	case frameWinGetReply:
		dst = appendU64(dst, f.req)
		dst = appendU32(dst, uint32(len(f.vals)))
		for _, v := range f.vals {
			dst = appendF64(dst, v)
		}
	case frameHeartbeat:
		dst = appendI32(dst, f.rank)
	case frameRankDead:
		cause := f.cause
		if len(cause) > maxCauseLen {
			cause = cause[:maxCauseLen]
		}
		dst = appendI32(dst, f.rank)
		dst = append(dst, cause...)
	default:
		panic(fmt.Sprintf("mpi: encoding unknown frame kind %d", f.kind))
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// frameCursor walks a frame body with bounds checking; every read errors
// instead of panicking so malformed wire input is survivable.
type frameCursor struct {
	b   []byte
	off int
}

func (c *frameCursor) remain() int { return len(c.b) - c.off }

func (c *frameCursor) u32() (uint32, error) {
	if c.remain() < 4 {
		return 0, fmt.Errorf("mpi: frame truncated at offset %d (want u32)", c.off)
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v, nil
}

func (c *frameCursor) u64() (uint64, error) {
	if c.remain() < 8 {
		return 0, fmt.Errorf("mpi: frame truncated at offset %d (want u64)", c.off)
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v, nil
}

func (c *frameCursor) u16() (uint16, error) {
	if c.remain() < 2 {
		return 0, fmt.Errorf("mpi: frame truncated at offset %d (want u16)", c.off)
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v, nil
}

func (c *frameCursor) i32() (int32, error) {
	v, err := c.u32()
	return int32(v), err
}

func (c *frameCursor) f64() (float64, error) {
	v, err := c.u64()
	return math.Float64frombits(v), err
}

// decodeFrameBody parses one frame body (the bytes after the length
// prefix). payload/cause in the result view b directly; vals is freshly
// allocated. Any structural defect — unknown kind, truncated field,
// out-of-range rank or tag — is an error, never a panic.
func decodeFrameBody(b []byte) (frame, error) {
	var f frame
	if len(b) == 0 {
		return f, fmt.Errorf("mpi: empty frame body")
	}
	c := frameCursor{b: b, off: 1}
	f.kind = b[0]
	var err error
	if f.epoch, err = c.u64(); err != nil {
		return f, err
	}
	switch f.kind {
	case frameMsg:
		if f.from, err = c.i32(); err != nil {
			return f, err
		}
		if f.to, err = c.i32(); err != nil {
			return f, err
		}
		if f.tag, err = c.i32(); err != nil {
			return f, err
		}
		var codec uint16
		if codec, err = c.u16(); err != nil {
			return f, err
		}
		f.codec = CodecID(codec)
		if f.from < 0 || f.to < 0 {
			return f, fmt.Errorf("mpi: frame with negative rank %d->%d", f.from, f.to)
		}
		if f.tag < 0 {
			return f, fmt.Errorf("mpi: frame with negative tag %d", f.tag)
		}
		f.payload = c.b[c.off:]
	case frameWorldClose:
		if f.rank, err = c.i32(); err != nil {
			return f, err
		}
		if c.remain() > maxCauseLen {
			return f, fmt.Errorf("mpi: close cause of %d bytes exceeds cap %d", c.remain(), maxCauseLen)
		}
		f.cause = string(c.b[c.off:])
	case frameWinPut:
		if f.win, err = c.i32(); err != nil {
			return f, err
		}
		if f.slot, err = c.i32(); err != nil {
			return f, err
		}
		if f.val, err = c.f64(); err != nil {
			return f, err
		}
		if f.win < 0 || f.slot < 0 {
			return f, fmt.Errorf("mpi: window op with negative index (win %d slot %d)", f.win, f.slot)
		}
	case frameWinGet:
		if f.win, err = c.i32(); err != nil {
			return f, err
		}
		if f.req, err = c.u64(); err != nil {
			return f, err
		}
		if f.rank, err = c.i32(); err != nil {
			return f, err
		}
		if f.win < 0 {
			return f, fmt.Errorf("mpi: window get with negative index %d", f.win)
		}
	case frameWinGetReply:
		if f.req, err = c.u64(); err != nil {
			return f, err
		}
		var n uint32
		if n, err = c.u32(); err != nil {
			return f, err
		}
		if int(n)*8 != c.remain() {
			return f, fmt.Errorf("mpi: window snapshot claims %d values, %d bytes follow", n, c.remain())
		}
		f.vals = make([]float64, n)
		for i := range f.vals {
			f.vals[i], _ = c.f64()
		}
	case frameHeartbeat:
		if f.rank, err = c.i32(); err != nil {
			return f, err
		}
		if f.rank < 0 {
			return f, fmt.Errorf("mpi: heartbeat from negative rank %d", f.rank)
		}
	case frameRankDead:
		if f.rank, err = c.i32(); err != nil {
			return f, err
		}
		if f.rank < 0 {
			return f, fmt.Errorf("mpi: death notice for negative rank %d", f.rank)
		}
		if c.remain() > maxCauseLen {
			return f, fmt.Errorf("mpi: death cause of %d bytes exceeds cap %d", c.remain(), maxCauseLen)
		}
		f.cause = string(c.b[c.off:])
	default:
		return f, fmt.Errorf("mpi: unknown frame kind %d", f.kind)
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from r into scratch (grown as
// needed and returned for reuse) and decodes it. The frame's payload and
// cause fields view scratch, so the caller must consume or copy them
// before the next read.
func readFrame(r *bufio.Reader, scratch []byte) (frame, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, scratch, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameLen {
		return frame{}, scratch, fmt.Errorf("mpi: frame length %d outside (0, %d]", n, maxFrameLen)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return frame{}, scratch, err
	}
	f, err := decodeFrameBody(scratch)
	return f, scratch, err
}
