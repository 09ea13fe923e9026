package trace

// Cross-process telemetry: the serializable snapshot of one process's
// tracer (its event tracks plus its metrics registry) and the wire image
// that ships it. In a multi-process run each worker rank exports its
// tracer with Export, sends the snapshot's JSON document to rank 0 as an
// ordinary message when the launcher asks for it, and the launcher
// merges every process's tracks into one Chrome trace with
// WriteMergedTrace.
//
// The wire image is json.Marshal of the Telemetry, so tracks and
// registry share one encoding. The bytes cross a process boundary, so
// DecodeTelemetry accepts only the document the encoder itself writes and
// errors, never panics, on anything else. JSON makes no count claims:
// what decoding allocates is bounded by the bytes received. json.Marshal
// refuses a non-finite float; the worker's reply (cmd/meshgen) then ships
// without the registry, or without the tracks.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

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

// DecodeTelemetry parses one snapshot's wire image, the document
// json.Marshal writes of it. Beyond what json.Unmarshal refuses
// (truncation, trailing bytes), the input must be exactly the bytes the
// decoded value re-marshals to, which also refuses unknown, duplicate or
// case-folded keys, added whitespace and another build's schema.
func DecodeTelemetry(b []byte) (*Telemetry, error) {
	tel := new(Telemetry)
	if err := json.Unmarshal(b, tel); err != nil {
		return nil, fmt.Errorf("trace: telemetry: %w", err)
	}
	if canon, err := json.Marshal(tel); err != nil || !bytes.Equal(canon, b) {
		return nil, errors.New("trace: telemetry is not in its canonical JSON form")
	}
	return tel, nil
}
