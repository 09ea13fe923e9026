package trace

// The run-metrics registry: a compact counters/gauges/histograms store
// exported as one JSON document next to the trace. Where the trace
// answers "what happened when", the registry answers "how much overall":
// tasks per rank, steal totals, queue depth distribution, pool hit rate.
// A nil *Metrics is the disabled registry — every method no-ops — so
// instrumented code can write m.Count(...) unconditionally behind the
// tracer's nil check.

import (
	"encoding/json"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
)

// MetricsSchema identifies the exported document format; the validator
// and the schema tests pin it.
const MetricsSchema = "pamg2d-metrics/1"

// Metrics is the registry. The zero value is not usable; create with
// NewMetrics (or reach the one attached to a Tracer via Tracer.Metrics).
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Count adds delta to the named monotonic counter.
func (m *Metrics) Count(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Gauge sets the named gauge to its latest value.
func (m *Metrics) Gauge(name string, val float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = val
	m.mu.Unlock()
}

// Observe records one sample into the named histogram. Buckets are
// power-of-two boundaries over the sample's binary exponent, so one
// histogram shape serves seconds, bytes, and counts alike.
func (m *Metrics) Observe(name string, val float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = &histogram{buckets: make(map[int]int64)}
		m.hists[name] = h
	}
	h.observe(val)
	m.mu.Unlock()
}

// histogram accumulates samples into log2 buckets: a sample v lands in
// the bucket whose upper boundary is the smallest power of two >= v.
type histogram struct {
	count    int64
	sum      float64
	min, max float64
	buckets  map[int]int64
}

// minExp floors the bucket exponent so denormals and zero collapse into
// one underflow bucket instead of producing thousands of empty ones.
const minExp = -40

func bucketExp(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return minExp
	}
	e := math.Ilogb(v)
	// Ilogb(2^e) == e, but 2^e belongs to the bucket with boundary 2^e,
	// so exact powers of two step one bucket down.
	if math.Ldexp(1, e) == v {
		e--
	}
	if e < minExp {
		e = minExp
	}
	return e
}

func (h *histogram) observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketExp(v)]++
}

// HistBucket is one exported histogram bucket: the count of samples with
// value <= Le (and greater than the previous bucket's Le).
type HistBucket struct {
	Le    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramJSON is the exported form of one histogram.
type HistogramJSON struct {
	Count   int64        `json:"count"`
	Sum     float64      `json:"sum"`
	Min     float64      `json:"min"`
	Max     float64      `json:"max"`
	Buckets []HistBucket `json:"buckets"`
}

// MetricsJSON is the exported registry document.
type MetricsJSON struct {
	Schema     string                   `json:"schema"`
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
}

// Snapshot returns the registry's current contents in exported form.
// Safe on a nil registry (returns an empty document).
func (m *Metrics) Snapshot() MetricsJSON {
	out := MetricsJSON{
		Schema:     MetricsSchema,
		Counters:   map[string]int64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramJSON{},
	}
	if m == nil {
		return out
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, v := range m.counters {
		out.Counters[k] = v
	}
	for k, v := range m.gauges {
		out.Gauges[k] = v
	}
	for k, h := range m.hists {
		hj := HistogramJSON{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
		exps := make([]int, 0, len(h.buckets))
		for e := range h.buckets {
			exps = append(exps, e)
		}
		sort.Ints(exps)
		for _, e := range exps {
			hj.Buckets = append(hj.Buckets, HistBucket{Le: math.Ldexp(1, e+1), Count: h.buckets[e]})
		}
		out.Histograms[k] = hj
	}
	return out
}

// MergeSnapshot folds an exported registry document into this registry
// under the given name prefix — the launcher's aggregation path for
// per-rank metrics shipped over the fabric ("rank1." + "tasks.run" →
// "rank1.tasks.run"). Histogram buckets fold by recovering the binary
// exponent from each bucket's boundary, so a merged histogram is
// indistinguishable from one observed locally. Safe on a nil registry.
func (m *Metrics) MergeSnapshot(prefix string, snap MetricsJSON) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, v := range snap.Counters {
		m.counters[prefix+name] += v
	}
	for name, v := range snap.Gauges {
		m.gauges[prefix+name] = v
	}
	for name, hj := range snap.Histograms {
		key := prefix + name
		h := m.hists[key]
		if h == nil {
			h = &histogram{buckets: make(map[int]int64)}
			m.hists[key] = h
		}
		if hj.Count > 0 {
			if h.count == 0 || hj.Min < h.min {
				h.min = hj.Min
			}
			if h.count == 0 || hj.Max > h.max {
				h.max = hj.Max
			}
		}
		h.count += hj.Count
		h.sum += hj.Sum
		for _, b := range hj.Buckets {
			// The export boundary is 2^(e+1) for bucket exponent e; Ilogb
			// inverts it exactly for the power-of-two boundaries the
			// registry emits.
			e := minExp
			if b.Le > 0 && !math.IsNaN(b.Le) && !math.IsInf(b.Le, 0) {
				e = math.Ilogb(b.Le) - 1
				if math.Ldexp(1, e+1) != b.Le {
					// Not a power of two (foreign document): bucket by the
					// boundary's magnitude instead of dropping the samples.
					e = bucketExp(b.Le)
				}
				if e < minExp {
					e = minExp
				}
			}
			h.buckets[e] += b.Count
		}
	}
}

// WriteMetrics writes the registry as indented JSON (map keys sort, so
// the output is deterministic for a given registry state).
func (m *Metrics) WriteMetrics(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}

// Mallocs reads the process's cumulative heap allocation count, the
// quantity of runtime.MemStats.Mallocs; the delta around a stage or an
// audit check is what it allocated. The counter is process-global, and the
// runtime publishes the objects taken from a span when the owning P swaps
// the span out, so a delta is exact to within a span's worth of objects per
// size class. It reads two runtime/metrics counters rather than calling
// ReadMemStats, which stops the world: the audit stage reads the counter
// twice per job, and the pauses were a quarter of its wall time on a small
// mesh.
func Mallocs() uint64 {
	s := mallocSamples.Get().(*[2]metrics.Sample)
	metrics.Read(s[:])
	n := s[0].Value.Uint64() + s[1].Value.Uint64()
	mallocSamples.Put(s)
	return n
}

// mallocSamples is pooled because metrics.Read makes its argument escape
// and the counter must not count itself.
var mallocSamples = sync.Pool{New: func() any {
	return &[2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
}}
