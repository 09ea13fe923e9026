package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// populate writes a recognizable mix of events onto a tracer: a root
// span, per-rank task spans with args, an instant, a counter sample, and
// a steal flow pair.
func populate(t *Tracer) {
	root := t.Begin(RootRank, CatStage, "stage")
	s0 := t.Begin(0, CatTask, "task-a")
	t.Instant(0, CatRecover, "rank-dead", I("rank", 2))
	s0.End(F("cost", 1.5))
	s1 := t.Begin(1, CatTask, "task-b")
	t.FlowOut(1, 0, "steal")
	s1.End()
	sIn := t.Begin(0, CatTask, "stolen")
	t.FlowIn(0, 1, "steal")
	sIn.End()
	t.Counter(1, "queue", 3)
	root.End()
	t.Metrics().Count("tasks.run", 4)
	t.Metrics().Observe("task.seconds", 0.25)
}

// TestTelemetryWireRoundTrip: Export → AppendBinary → DecodeTelemetry
// must reproduce the snapshot exactly, metrics document included.
func TestTelemetryWireRoundTrip(t *testing.T) {
	tr := New(2)
	populate(tr)
	tel := tr.Export(1)
	if tel.Rank != 1 || tel.Ranks != 2 {
		t.Fatalf("export labeled rank %d/%d, want 1/2", tel.Rank, tel.Ranks)
	}
	if len(tel.Tracks) == 0 {
		t.Fatal("export dropped all tracks")
	}

	wire := tel.AppendBinary(nil)
	got, err := DecodeTelemetry(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	a, _ := json.Marshal(tel)
	b, _ := json.Marshal(got)
	if !bytes.Equal(a, b) {
		t.Fatalf("roundtrip mismatch:\n sent %s\n got  %s", a, b)
	}

	// The image must be stable under re-encode (prefix-cache determinism).
	if again := got.AppendBinary(nil); !bytes.Equal(wire, again) {
		t.Fatal("re-encode of decoded telemetry differs")
	}
}

// TestTelemetryDecodeRejects: truncated or corrupt images must error,
// never panic or over-allocate.
func TestTelemetryDecodeRejects(t *testing.T) {
	tr := New(2)
	populate(tr)
	wire := tr.Export(0).AppendBinary(nil)

	if _, err := DecodeTelemetry(nil); err == nil {
		t.Error("empty image accepted")
	}
	for cut := 1; cut < len(wire); cut += 7 {
		if _, err := DecodeTelemetry(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(wire))
		}
	}
	// A corrupt track count must be rejected by the cheap bound, not by
	// attempting the allocation.
	corrupt := append([]byte{}, wire...)
	corrupt[12], corrupt[13], corrupt[14], corrupt[15] = 0xff, 0xff, 0xff, 0xff
	if _, err := DecodeTelemetry(corrupt); err == nil {
		t.Error("absurd track count accepted")
	}
}

// FuzzDecodeTelemetry hammers the launcher's wire-facing telemetry
// decoder: arbitrary bytes must never panic, and anything it accepts must
// re-encode to the identical bytes.
func FuzzDecodeTelemetry(f *testing.F) {
	tr := New(2)
	populate(tr)
	wire := tr.Export(1).AppendBinary(nil)
	f.Add(wire)
	f.Add((*Tracer)(nil).Export(0).AppendBinary(nil))
	f.Add(wire[:len(wire)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		tel, err := DecodeTelemetry(b)
		if err != nil {
			return
		}
		if again := tel.AppendBinary(nil); !bytes.Equal(again, b) {
			t.Fatalf("accepted %d bytes re-encode to %d different bytes", len(b), len(again))
		}
	})
}

// TestTelemetryDecodeRejectsNonCanonicalMetrics: a metrics document that
// parses but is not the encoder's own form (here, with a space added) is
// refused, so whatever decodes re-encodes byte for byte.
func TestTelemetryDecodeRejectsNonCanonicalMetrics(t *testing.T) {
	tel := mkTelemetry(1, 5)
	wire := tel.AppendBinary(nil)
	doc, _ := json.Marshal(tel.Metrics)
	head := wire[:len(wire)-len(doc)-4]
	spaced := append([]byte(" "), doc...)
	b := binary.LittleEndian.AppendUint32(append([]byte{}, head...), uint32(len(spaced)))
	if _, err := DecodeTelemetry(append(b, spaced...)); err == nil {
		t.Error("non-canonical metrics document accepted")
	}
	if _, err := DecodeTelemetry(wire); err != nil {
		t.Errorf("canonical image rejected: %v", err)
	}
}

// mkTelemetry builds a snapshot by hand with exact timestamps.
func mkTelemetry(rank int, ts ...int64) *Telemetry {
	track := Track{Rank: rank}
	for i, v := range ts {
		track.Events = append(track.Events, Event{
			Name: "ev", Cat: CatTask, Ph: phSpan, TS: v, Dur: 10, Args: []Arg{I("i", i)},
		})
	}
	return &Telemetry{Rank: rank, Ranks: 3, Tracks: []Track{track},
		Metrics: (*Metrics)(nil).Snapshot()}
}

// TestMergedTraceDeterministic: the merged export must be byte-identical
// across repeated calls and independent of the order snapshots arrived
// in (rank order, not arrival order, decides).
func TestMergedTraceDeterministic(t *testing.T) {
	clocks := []RankClock{{Rank: 0}, {Rank: 1, OffsetNS: 100, RTTNS: 8}, {Rank: 2, OffsetNS: -50, RTTNS: 6}}
	t0 := mkTelemetry(0, 5, 1, 9)
	t1 := mkTelemetry(1, 3, 2)
	t2 := mkTelemetry(2, 70, 60)

	render := func(telems []*Telemetry) []byte {
		var buf bytes.Buffer
		if err := WriteMergedTrace(&buf, telems, clocks, "tcp"); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := render([]*Telemetry{t0, t1, t2})
	if got := render([]*Telemetry{t2, t0, t1}); !bytes.Equal(want, got) {
		t.Error("merged trace depends on snapshot arrival order")
	}
	if got := render([]*Telemetry{t1, t2, t0}); !bytes.Equal(want, got) {
		t.Error("merged trace not deterministic across permutations")
	}
	if _, err := ValidateTrace(bytes.NewReader(want)); err != nil {
		t.Fatalf("merged trace invalid: %v", err)
	}
}

// TestMergedTraceRebase: offsets shift each rank's timestamps onto the
// host clock, rebased values clamp at zero instead of going negative,
// and every track stays sorted — the monotonicity the validator enforces
// per (pid, tid).
func TestMergedTraceRebase(t *testing.T) {
	clocks := []RankClock{{Rank: 0}, {Rank: 1, OffsetNS: 1000}, {Rank: 2, OffsetNS: -500}}
	telems := []*Telemetry{
		mkTelemetry(0, 10, 20),
		mkTelemetry(1, 7, 3),          // unsorted on purpose: merge must sort after rebase
		mkTelemetry(2, 100, 200, 300), // 100-500 < 0 → clamps to 0
	}
	var buf bytes.Buffer
	if err := WriteMergedTrace(&buf, telems, clocks, "tcp"); err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("rebased trace invalid: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Pid int     `json:"pid"`
			TS  float64 `json:"ts"` // Chrome trace ts is microseconds
		} `json:"traceEvents"`
		Metadata map[string]any `json:"metadata"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	byPid := map[int][]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.TS < 0 {
			t.Errorf("negative rebased timestamp %v on pid %d", ev.TS, ev.Pid)
		}
		byPid[ev.Pid] = append(byPid[ev.Pid], ev.TS)
	}
	// Rank 1 (pid 2): ts {7,3}ns + 1000ns → sorted {1.003, 1.007}µs.
	if got := byPid[2]; len(got) != 2 || got[0] != 1.003 || got[1] != 1.007 {
		t.Errorf("rank 1 rebase = %v, want [1.003 1.007]", got)
	}
	// Rank 2 (pid 3): every timestamp is below the -500ns offset's reach
	// of zero or clamps there; none may go negative.
	for _, ts := range byPid[3] {
		if ts < 0 {
			t.Errorf("rank 2 timestamp %v below zero after clamp", ts)
		}
	}
	// Metadata carries every rank's offset in string-keyed form.
	offs, ok := doc.Metadata["clock_offsets_ns"].(map[string]any)
	if !ok || offs["1"] != float64(1000) || offs["2"] != float64(-500) {
		t.Errorf("clock offset metadata wrong: %v", doc.Metadata)
	}
}

// TestPrometheusExport: the registry's text exposition must carry the
// pamg2d_ prefix, counter/_total and histogram conventions, and pass the
// package's own linter.
func TestPrometheusExport(t *testing.T) {
	m := NewMetrics()
	m.Count("engine.runs", 3)
	m.Gauge("engine.active", 2)
	for _, v := range []float64{0.1, 0.2, 0.4, 1.7, 300} {
		m.Observe("run.seconds", v)
	}

	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE pamg2d_engine_runs_total counter",
		"pamg2d_engine_runs_total 3",
		"# TYPE pamg2d_engine_active gauge",
		"# TYPE pamg2d_run_seconds histogram",
		"pamg2d_run_seconds_bucket{le=\"+Inf\"} 5",
		"pamg2d_run_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in exposition:\n%s", want, text)
		}
	}
	samples, err := ValidatePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, text)
	}
	if samples == 0 {
		t.Fatal("linter saw no samples")
	}

	// Byte-determinism across repeated exports of the same registry.
	var again bytes.Buffer
	if err := m.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Error("prometheus exposition not deterministic")
	}
}

// TestValidatePrometheusRejects: the linter must catch the corruption
// classes the exporter could regress into.
func TestValidatePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":            "pamg2d_bad-name 1\n",
		"bad value":           "pamg2d_x notanumber\n",
		"hist no inf":         "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_sum 1\nh_count 2\n",
		"hist non-cumulative": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"hist inf-count skew": "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
	}
	for name, text := range cases {
		if _, err := ValidatePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: linter accepted:\n%s", name, text)
		}
	}
	if _, err := ValidatePrometheus(strings.NewReader("")); err != nil {
		t.Errorf("empty exposition rejected: %v", err)
	}
}

// TestMergeSnapshotEquivalence: folding a snapshot into an empty registry
// under a prefix must reproduce the original histograms exactly — same
// buckets, same totals — so launcher-merged worker metrics are
// indistinguishable from locally-observed ones.
func TestMergeSnapshotEquivalence(t *testing.T) {
	src := NewMetrics()
	src.Count("tasks", 7)
	src.Gauge("depth", 4)
	for _, v := range []float64{0.001, 0.5, 2, 1024, 3.14159} {
		src.Observe("lat", v)
	}

	dst := NewMetrics()
	dst.MergeSnapshot("rank1.", src.Snapshot())
	got := dst.Snapshot()
	want := src.Snapshot()

	if got.Counters["rank1.tasks"] != 7 || got.Gauges["rank1.depth"] != 4 {
		t.Errorf("scalar fold wrong: %+v", got)
	}
	a, _ := json.Marshal(want.Histograms["lat"])
	b, _ := json.Marshal(got.Histograms["rank1.lat"])
	if !bytes.Equal(a, b) {
		t.Errorf("histogram fold differs:\n src %s\n dst %s", a, b)
	}

	// Folding twice accumulates.
	dst.MergeSnapshot("rank1.", src.Snapshot())
	if n := dst.Snapshot().Counters["rank1.tasks"]; n != 14 {
		t.Errorf("double fold counter = %d, want 14", n)
	}
	if h := dst.Snapshot().Histograms["rank1.lat"]; h.Count != 10 {
		t.Errorf("double fold histogram count = %d, want 10", h.Count)
	}
}

// TestTracerNow pins Now to the tracer's epoch: it must advance and stay
// consistent with recorded span timestamps, and a nil tracer reads zero.
func TestTracerNow(t *testing.T) {
	var nilTracer *Tracer
	if nilTracer.Now() != 0 {
		t.Error("nil tracer Now != 0")
	}
	tr := New(1)
	a := tr.Now()
	time.Sleep(time.Millisecond)
	b := tr.Now()
	if b <= a {
		t.Errorf("Now not advancing: %d then %d", a, b)
	}
}
