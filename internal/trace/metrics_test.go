package trace

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestMetricsRoundTrip exercises the three instrument kinds and checks
// the export against the validator and the expected contents.
func TestMetricsRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Count("tasks.total", 3)
	m.Count("tasks.total", 2)
	m.Gauge("wire.bytes", 4096)
	for _, v := range []float64{0.001, 0.002, 0.5, 1.0, 7.5} {
		m.Observe("task.seconds", v)
	}

	snap := m.Snapshot()
	if snap.Schema != MetricsSchema {
		t.Errorf("schema %q", snap.Schema)
	}
	if snap.Counters["tasks.total"] != 5 {
		t.Errorf("counter = %d, want 5", snap.Counters["tasks.total"])
	}
	if snap.Gauges["wire.bytes"] != 4096 {
		t.Errorf("gauge = %v", snap.Gauges["wire.bytes"])
	}
	h := snap.Histograms["task.seconds"]
	if h.Count != 5 || h.Min != 0.001 || h.Max != 7.5 {
		t.Errorf("histogram summary: %+v", h)
	}
	if got := h.Sum; math.Abs(got-9.003) > 1e-12 {
		t.Errorf("histogram sum = %v", got)
	}

	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported metrics invalid: %v\n%s", err, buf.String())
	}
}

// TestHistogramBuckets pins the bucketing rule: a sample lands in the
// bucket whose upper boundary is the smallest power of two >= value.
func TestHistogramBuckets(t *testing.T) {
	m := NewMetrics()
	m.Observe("h", 1.0) // boundary sample: belongs to le=1
	m.Observe("h", 1.5) // le=2
	m.Observe("h", 2.0) // le=2
	m.Observe("h", 0)   // underflow bucket
	h := m.Snapshot().Histograms["h"]
	counts := map[float64]int64{}
	for _, b := range h.Buckets {
		counts[b.Le] = b.Count
	}
	if counts[1] != 1 || counts[2] != 2 {
		t.Errorf("bucket counts: %+v", h.Buckets)
	}
	var total int64
	for _, b := range h.Buckets {
		total += b.Count
	}
	if total != h.Count {
		t.Errorf("buckets sum to %d, count %d", total, h.Count)
	}
}

// TestMetricsConcurrent drives the registry from many goroutines; run
// under -race in CI.
func TestMetricsConcurrent(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Count("n", 1)
				m.Observe("v", float64(i))
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if snap.Counters["n"] != 4000 {
		t.Errorf("counter = %d, want 4000", snap.Counters["n"])
	}
	if snap.Histograms["v"].Count != 4000 {
		t.Errorf("histogram count = %d, want 4000", snap.Histograms["v"].Count)
	}
}

// TestValidateMetricsRejects feeds the validator malformed registries.
func TestValidateMetricsRejects(t *testing.T) {
	cases := map[string]string{
		"not json":     `[`,
		"wrong schema": `{"schema":"other/9","counters":{},"gauges":{},"histograms":{}}`,
		"no sections":  `{"schema":"pamg2d-metrics/1"}`,
		"bucket sum": `{"schema":"pamg2d-metrics/1","counters":{},"gauges":{},
			"histograms":{"h":{"count":3,"sum":1,"min":0,"max":1,"buckets":[{"le":1,"count":1}]}}}`,
		"unsorted buckets": `{"schema":"pamg2d-metrics/1","counters":{},"gauges":{},
			"histograms":{"h":{"count":2,"sum":1,"min":0,"max":1,"buckets":[{"le":2,"count":1},{"le":1,"count":1}]}}}`,
	}
	for name, in := range cases {
		if err := ValidateMetrics(strings.NewReader(in)); err == nil {
			t.Errorf("%s: validator accepted %s", name, in)
		}
	}
}

// TestNilMetricsIsSafe: the disabled registry accepts writes and exports
// an empty, valid document.
func TestNilMetricsIsSafe(t *testing.T) {
	var m *Metrics
	m.Count("a", 1)
	m.Gauge("b", 2)
	m.Observe("c", 3)
	var buf bytes.Buffer
	if err := m.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(&buf); err != nil {
		t.Fatalf("nil registry export invalid: %v", err)
	}
}

// TestMallocsCountsWithoutCounting: the reader allocates nothing itself (a
// counter that counted itself would charge every stage and audit check for
// being measured), sees the allocations made between two reads, and agrees
// with the runtime.MemStats.Mallocs it stands in for. The slack is the
// reader's documented lag: objects taken from a span still cached by a P
// are published when the span is swapped out.
func TestMallocsCountsWithoutCounting(t *testing.T) {
	Mallocs() // fill the sample pool
	if n := testing.AllocsPerRun(100, func() { Mallocs() }); n != 0 {
		t.Errorf("Mallocs allocates %v objects per read, want 0", n)
	}
	const made, slack = 100000, 1024
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // flushes every P's cached counts
	a0 := Mallocs()
	if d := int64(a0 - ms.Mallocs); d < 0 || d > slack {
		t.Errorf("Mallocs = %d right after MemStats.Mallocs = %d", a0, ms.Mallocs)
	}
	for i := 0; i < made; i++ {
		allocSink = make([]byte, 64)
	}
	if d := int64(Mallocs() - a0); d < made-slack || d > made+slack {
		t.Errorf("Mallocs delta over %d allocations = %d", made, d)
	}
}

var allocSink []byte
