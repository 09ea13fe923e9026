package trace

// Cross-process telemetry: the serializable snapshot of one process's
// tracer (its event tracks plus its metrics registry) and the binary
// image that ships it. In a multi-process run each worker rank exports
// its tracer with Export, sends the AppendBinary image to rank 0 as an
// ordinary message when the launcher asks for it, and the launcher
// merges every process's tracks into one Chrome trace with
// WriteMergedTrace.
//
// The encoding is the repo's usual length-checked binary framing for the
// event tracks — names, categories, timestamps, args — with the metrics
// registry embedded as one length-prefixed JSON document (its maps
// already have a canonical JSON form). Decoding validates every length
// against the remaining input and errors rather than panics: the bytes
// crossed a process boundary. It accepts only the encoder's own image, so
// a decoded snapshot re-encodes to the bytes it came from.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
)

// telemetryVersion tags the wire image so a mixed-version run fails with
// a clear error instead of a misparse.
const telemetryVersion = 1

// telemetryMaxTracks bounds the track count a decoder will accept; a
// track per rank plus the root track never approaches it.
const telemetryMaxTracks = 1 << 16

// Event is one exported trace event in a Telemetry snapshot: the
// serializable form of the recorder's internal event. TS and Dur are
// nanoseconds in the exporting tracer's time base (since its New).
type Event struct {
	Name string
	Cat  string
	Ph   byte
	TS   int64
	Dur  int64
	ID   uint64
	Args []Arg
}

// Track is one rank's event sequence. Rank is RootRank (-1) for the
// root-side track (stage spans), 0..Ranks-1 for worker tracks.
type Track struct {
	Rank   int
	Events []Event
}

// Telemetry is one process's complete observability snapshot: which rank
// the process hosted, the rank count of the run, every non-empty event
// track, and the metrics registry. It is the unit shipped to rank 0 and
// the unit WriteMergedTrace consumes.
type Telemetry struct {
	// Rank is the rank the exporting process hosted (the launcher's own
	// snapshot uses 0).
	Rank int
	// Ranks is the run's rank count, for track layout in the merge.
	Ranks int
	// Tracks holds the event tracks in export order: root first, then
	// rank 0..Ranks-1. Empty tracks are dropped on export.
	Tracks []Track
	// Metrics is the process's metrics-registry snapshot.
	Metrics MetricsJSON
}

// snapshot copies the buffer's recorded events into exported form. Like
// WriteTrace, it must only run after the traced work has quiesced.
func (b *buffer) snapshot() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, c := range b.chunks {
		k := int(c.n.Load())
		if k > chunkSize {
			k = chunkSize
		}
		for i := 0; i < k; i++ {
			e := c.events[i]
			out = append(out, Event{
				Name: e.name, Cat: e.cat, Ph: e.ph,
				TS: e.ts, Dur: e.dur, ID: e.id, Args: e.args,
			})
		}
	}
	return out
}

// Export snapshots the tracer as a shippable Telemetry for the process
// hosting hostRank. Empty tracks are omitted (a worker process records
// only its own rank's track and perhaps the root track). Safe on a nil
// tracer, which exports an empty snapshot.
func (t *Tracer) Export(hostRank int) *Telemetry {
	tel := &Telemetry{Rank: hostRank}
	if t == nil {
		tel.Metrics = (*Metrics)(nil).Snapshot()
		return tel
	}
	tel.Ranks = t.nranks
	for bi, b := range t.bufs {
		evs := b.snapshot()
		if len(evs) == 0 {
			continue
		}
		tel.Tracks = append(tel.Tracks, Track{Rank: bi - 1, Events: evs})
	}
	tel.Metrics = t.metrics.Snapshot()
	return tel
}

func appendTelemetryString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendBinary appends tel's wire image to dst and returns the extended
// slice; it is the encode half of the telemetry codec.
func (tel *Telemetry) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, telemetryVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tel.Rank)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tel.Ranks)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tel.Tracks)))
	for _, tr := range tel.Tracks {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(int32(tr.Rank)))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(tr.Events)))
		for _, e := range tr.Events {
			dst = appendTelemetryString(dst, e.Name)
			dst = appendTelemetryString(dst, e.Cat)
			dst = append(dst, e.Ph)
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.TS))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(e.Dur))
			dst = binary.LittleEndian.AppendUint64(dst, e.ID)
			dst = binary.LittleEndian.AppendUint16(dst, uint16(len(e.Args)))
			for _, a := range e.Args {
				dst = appendTelemetryString(dst, a.Key)
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(a.Val))
			}
		}
	}
	mj, err := json.Marshal(tel.Metrics)
	if err != nil {
		// A non-finite value does not marshal; the empty registry keeps
		// the frame decodable.
		mj, _ = json.Marshal((*Metrics)(nil).Snapshot())
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(mj)))
	return append(dst, mj...)
}

// telemetryCursor walks a telemetry body with bounds checks, accumulating
// the first error.
type telemetryCursor struct {
	b   []byte
	off int
	err error
}

func (c *telemetryCursor) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("trace: telemetry "+format, args...)
	}
}

func (c *telemetryCursor) u32() uint32 {
	if c.err != nil {
		return 0
	}
	if c.off+4 > len(c.b) {
		c.fail("truncated at offset %d (want u32)", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(c.b[c.off:])
	c.off += 4
	return v
}

func (c *telemetryCursor) u64() uint64 {
	if c.err != nil {
		return 0
	}
	if c.off+8 > len(c.b) {
		c.fail("truncated at offset %d (want u64)", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(c.b[c.off:])
	c.off += 8
	return v
}

func (c *telemetryCursor) u16() uint16 {
	if c.err != nil {
		return 0
	}
	if c.off+2 > len(c.b) {
		c.fail("truncated at offset %d (want u16)", c.off)
		return 0
	}
	v := binary.LittleEndian.Uint16(c.b[c.off:])
	c.off += 2
	return v
}

func (c *telemetryCursor) byte() byte {
	if c.err != nil {
		return 0
	}
	if c.off >= len(c.b) {
		c.fail("truncated at offset %d (want byte)", c.off)
		return 0
	}
	v := c.b[c.off]
	c.off++
	return v
}

func (c *telemetryCursor) str() string {
	n := int(c.u32())
	if c.err != nil {
		return ""
	}
	if n < 0 || c.off+n > len(c.b) {
		c.fail("string of %d bytes at offset %d overruns body", n, c.off)
		return ""
	}
	s := string(c.b[c.off : c.off+n])
	c.off += n
	return s
}

// DecodeTelemetry parses one AppendBinary image back into a Telemetry;
// it is the decode half of the telemetry codec. Any structural defect is
// an error, never a panic.
func DecodeTelemetry(b []byte) (*Telemetry, error) {
	c := &telemetryCursor{b: b}
	if v := c.u32(); c.err == nil && v != telemetryVersion {
		return nil, fmt.Errorf("trace: telemetry version %d, want %d", v, telemetryVersion)
	}
	tel := &Telemetry{
		Rank:  int(int32(c.u32())),
		Ranks: int(int32(c.u32())),
	}
	ntracks := int(int32(c.u32()))
	if c.err != nil {
		return nil, c.err
	}
	if ntracks < 0 || ntracks > telemetryMaxTracks {
		return nil, fmt.Errorf("trace: telemetry claims %d tracks", ntracks)
	}
	for ti := 0; ti < ntracks; ti++ {
		tr := Track{Rank: int(int32(c.u32()))}
		nev := int(int32(c.u32()))
		if c.err != nil {
			return nil, c.err
		}
		// Every event costs at least 35 body bytes (two empty strings,
		// phase, ts/dur/id, arg count), so the claimed count is bounded by
		// the bytes that actually follow.
		if nev < 0 || nev > (len(b)-c.off)/35+1 {
			return nil, fmt.Errorf("trace: track %d claims %d events in %d bytes", ti, nev, len(b)-c.off)
		}
		tr.Events = make([]Event, 0, nev)
		for i := 0; i < nev; i++ {
			e := Event{
				Name: c.str(),
				Cat:  c.str(),
				Ph:   c.byte(),
				TS:   int64(c.u64()),
				Dur:  int64(c.u64()),
				ID:   c.u64(),
			}
			nargs := int(c.u16())
			if c.err != nil {
				return nil, c.err
			}
			for a := 0; a < nargs; a++ {
				e.Args = append(e.Args, Arg{Key: c.str(), Val: math.Float64frombits(c.u64())})
			}
			if c.err != nil {
				return nil, c.err
			}
			tr.Events = append(tr.Events, e)
		}
		tel.Tracks = append(tel.Tracks, tr)
	}
	mlen := int(int32(c.u32()))
	if c.err != nil {
		return nil, c.err
	}
	if mlen < 0 || c.off+mlen > len(b) {
		return nil, fmt.Errorf("trace: telemetry metrics of %d bytes overrun body", mlen)
	}
	doc := b[c.off : c.off+mlen]
	if err := json.Unmarshal(doc, &tel.Metrics); err != nil {
		return nil, fmt.Errorf("trace: telemetry metrics: %w", err)
	}
	if canon, err := json.Marshal(tel.Metrics); err != nil || !bytes.Equal(canon, doc) {
		return nil, fmt.Errorf("trace: telemetry metrics document is not in its canonical form")
	}
	c.off += mlen
	if c.off != len(b) {
		return nil, fmt.Errorf("trace: %d trailing bytes after telemetry", len(b)-c.off)
	}
	return tel, nil
}
