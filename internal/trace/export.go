package trace

// Chrome trace-event export. The output is the JSON object format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
// that chrome://tracing and Perfetto's legacy-JSON importer both load:
// one "process" per rank (pid rank+1, pid 0 for root-side pipeline work),
// two "threads" per process — mesher (execution) and comm (protocol) —
// an "audit" thread for the checks that run beside the stages, and flow
// events linking each steal's departure to its arrival.
//
// WriteTrace must only be called after the traced run has quiesced; the
// recorder's buffers are read without synchronization against writers.

import "io"

// Display thread ids within each rank process.
const (
	tidMesher = 1 // stages, tasks, idle waits
	tidComm   = 2 // steal protocol, MPI sends, counters
	tidAudit  = 4 // audit checks that overlap the stages
)

// tidFor maps an event category to its display thread. An audit check's
// span overlaps the stage spans without nesting in them, and a viewer
// expects the spans of one thread to nest, so it gets a thread of its own.
func tidFor(cat string) int {
	switch cat {
	case CatSteal, CatMPI:
		return tidComm
	case CatAudit:
		return tidAudit
	}
	return tidMesher
}

// jsonEvent is one trace event in Chrome's JSON schema. Numeric ids are
// emitted as integers; timestamps and durations are microseconds.
type jsonEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   uint64         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonTrace is the exported file: the object form with traceEvents, which
// both Chrome and Perfetto accept. Metadata carries the merged export's
// run-level record (transport, per-rank clock offsets); single-process
// exports omit it.
type jsonTrace struct {
	TraceEvents     []jsonEvent    `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata,omitempty"`
}

// WriteTrace writes the recorded run as Chrome trace-event JSON: the
// single-process case of WriteMergedTrace (one snapshot, no clock
// rebasing, no metadata object). Events are globally sorted by
// timestamp, so every per-track sequence is non-decreasing — the
// property the schema tests lock in. Safe on a nil tracer (writes an
// empty, still-loadable trace).
func (t *Tracer) WriteTrace(w io.Writer) error {
	return WriteMergedTrace(w, []*Telemetry{t.Export(0)}, nil, "")
}
