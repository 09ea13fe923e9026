package main

import (
	"encoding/json"
	"math"
	"sort"
)

// Metric kinds. End-to-end metrics are what a user of the system sees
// and carry a regression bound; per-layer metrics attribute a change to
// the module that caused it and carry none.
const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
)

// metricDef declares one metric of the benchmark. The table below is the
// single source of the names, units and directions: BENCHMARK.json lists
// exactly these (a test holds the two together), and the result file and
// the compare tool are driven by it.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Kind   string
	// Bound is the relative worsening of the median that counts as a
	// regression. For end-to-end metrics it is the gate; for per-layer
	// metrics a non-zero value is a watch bound that -compare prints a
	// verdict against without failing on it (the metrics ISSUE 12 listed
	// as end-to-end that exist on some workloads only).
	Bound float64
	Doc   string
}

func e2e(name, unit, better string, bound float64, doc string) metricDef {
	return metricDef{name, unit, better, kindE2E, bound, doc}
}

func layer(name, unit, better, doc string) metricDef {
	return metricDef{name, unit, better, kindLayer, 0, doc}
}

func watch(name, unit, better string, bound float64, doc string) metricDef {
	return metricDef{name, unit, better, kindLayer, bound, doc}
}

// auditCheckNames are the six registered invariant checks, in registry
// order; each gets an audit.check.<name>_s metric.
var auditCheckNames = []string{"orientation", "conformity", "boundary", "delaunay", "boundary-layer", "decoupling"}

// stageNames are the pipeline stages, in execution order; each gets a
// core.stage.<name>_s metric.
var stageNames = []string{"validate", "boundary-rays", "ray-insertion", "bl-triangulation", "inviscid", "merge", "audit"}

var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		// End to end: defined on every workload (the driver prints every
		// one of them for every workload).
		e2e("wall_1r_s", "s", "lower", 0.25, "median wall of one operation at parallelism 1: core.Generate at 1 rank (adapt.Adapt at 1 worker; seconds per completed request with 1 client on meshd-mix), tracer nil, audit off"),
		e2e("wall_2r_s", "s", "lower", 0.25, "the same at parallelism 2: 2 in-process ranks (over the TCP fabric on highlift-tcp; Workers=2,Ranks=2 on adapt-bl; 2 clients on meshd-mix)"),
		e2e("alloc_mb", "MB", "lower", 0.25, "heap bytes allocated by one parallelism-1 operation (runtime.MemStats.TotalAlloc delta; per request, read from the server, on meshd-mix)"),
		e2e("allocs_k", "count", "lower", 0.05, "thousand heap allocations of the same operation (runtime.MemStats.Mallocs delta): the count barely moves between seeds where the bytes jump with slice-growth thresholds, so this is the sharp half of the allocation gate"),
		e2e("setup_s", "s", "lower", 0.25, "everything before the first timed operation: input generation, cluster bring-up, go build + meshd start-up, warm-up/verification runs"),

		// End-to-end metrics of ISSUE 12 that exist on some workloads only;
		// reported per layer with a watch bound.
		watch("core.serial_s", "s", "lower", 0.07, "per 1-rank run, Stats.Times.Total minus the summed task seconds: the root-side time no rank count removes"),
		watch("core.wall_audit_1r_s", "s", "lower", 0.05, "1-rank wall with Config.Audit=true"),
		watch("adapt.in_band_pct", "%", "higher", 0.01, "100*Result.InBand after the adaptation cycle (0 when the workload does not adapt)"),
		watch("meshd.req_per_s", "1/s", "higher", 0.07, "completed 200s per second with 2 clients"),
		watch("meshd.lat_p50_ms", "ms", "lower", 0.10, "request latency, send to last body byte, median, 2 clients"),
		watch("meshd.lat_p95_ms", "ms", "lower", 0.10, "request latency p95, 2 clients"),
		layer("host.raw_wall_1r_s", "s", "lower", "wall_1r_s as the clock read it, before host calibration"),
		layer("host.raw_wall_2r_s", "s", "lower", "wall_2r_s as the clock read it"),
		layer("host.raw_setup_s", "s", "lower", "setup_s as the clock read it"),
		layer("host.calib_ms", "ms", "lower", "median wall of the calibration kernel between this workload's repetitions; the end-to-end times were multiplied by 35 ms (the uncontended reference host) over it"),
		layer("fail_frac", "ratio", "lower", "failed operations / attempted operations; any increase is a regression"),

		layer("geom.orient2d_fast_ns", "ns", "lower", "Orient2D on well-separated points (filter accepts)"),
		layer("geom.orient2d_exact_ns", "ns", "lower", "Orient2D on near-collinear points (exact expansion path)"),
		layer("geom.incircle_fast_ns", "ns", "lower", "InCircle on well-separated points"),
		layer("geom.incircle_exact_ns", "ns", "lower", "InCircle on near-cocircular points"),

		layer("pslg.graph_s", "s", "lower", "building and validating the PSLG"),
		layer("pslg.contains_ns", "ns", "lower", "Loop.Contains per query against the boundary-layer outer border"),

		layer("blayer.rays_s", "s", "lower", "GenerateRays: normals, fans, intersection resolution"),
		layer("blayer.insert_s", "s", "lower", "PlanCounts + InsertRay over every ray"),
		layer("blayer.rays", "count", "lower", "rays generated"),
		layer("blayer.points", "count", "lower", "boundary-layer points including the surface"),

		layer("project.decompose_s", "s", "lower", "project.New + Decompose of the boundary-layer points"),
		layer("project.leaves", "count", "higher", "leaf subdomains"),
		layer("project.leaf_imbalance", "ratio", "lower", "largest leaf / mean leaf, in points"),

		layer("delaunay.triangulate_s", "s", "lower", "Triangulate over every leaf, sequential kernel"),
		layer("delaunay.insert_kpts_per_s", "1/s", "higher", "thousand points triangulated per second"),
		layer("delaunay.refine_s", "s", "lower", "TriangulateRefined of the transition region and every decoupled region"),
		layer("delaunay.refine_ktris_per_s", "1/s", "higher", "thousand refined triangles produced per second"),
		layer("delaunay.kw2_s", "s", "lower", "TriangulateParallel, 2 workers, on the largest leaf"),
		layer("delaunay.kw2_speedup", "ratio", "higher", "sequential Triangulate of the same leaf / kw2_s"),
		layer("delaunay.kw2_conflict_frac", "ratio", "lower", "insertions deferred by cavity conflicts / insertions attempted"),

		layer("sizing.build_s", "s", "lower", "NewGraded over the surface points"),
		layer("sizing.area_ns", "ns", "lower", "Graded.Area per query"),

		layer("decouple.decouple_s", "s", "lower", "border marches + InitialQuadrants + Decouple"),
		layer("decouple.regions", "count", "higher", "decoupled inviscid regions"),
		layer("decouple.cost_imbalance", "ratio", "lower", "largest region cost / mean region cost"),

		layer("loadbal.steal_requests", "count", "lower", "steal requests in one 2-rank run"),
		layer("loadbal.steals_granted", "count", "higher", "requests satisfied"),
		layer("loadbal.steal_success_frac", "ratio", "higher", "granted / requests"),
		layer("loadbal.idle_s", "s", "lower", "summed time meshers waited for work in one 2-rank run"),
		layer("loadbal.busy_imbalance", "ratio", "lower", "largest / mean rank Busy of the dominant stage at 2 ranks"),
		layer("loadbal.task_overhead_us", "us", "lower", "per task, 2000 no-op tasks through loadbal.Run on a 2-rank in-process world"),

		layer("mpi.msgs", "count", "lower", "messages of one 2-rank run"),
		layer("mpi.wire_mb", "MB", "lower", "bytes on the (accounted) wire of one 2-rank run"),
		layer("mpi.wire_bytes_per_tri", "B", "lower", "wire bytes per triangle produced"),
		layer("mpi.pingpong_inproc_us", "us", "lower", "64 KiB round trip, in-process fabric"),
		layer("mpi.pingpong_tcp_us", "us", "lower", "64 KiB round trip, loopback TCP fabric"),
		layer("mpi.tcp_mb_per_s", "MB/s", "higher", "1 MiB payloads one way over loopback TCP"),
		layer("mpi.pool_reuse_frac", "ratio", "higher", "pooled buffer puts / gets over the traced pass"),
		layer("mpi.cluster_up_s", "s", "lower", "LoopbackClusters(2) bring-up"),
		layer("mpi.tcp_over_inproc", "ratio", "lower", "2-rank wall over TCP / 2-rank in-process wall (0 when the workload has no TCP runs)"),
	}
	for _, s := range stageNames {
		defs = append(defs, layer("core.stage."+s+"_s", "s", "lower", "median Stats.Stages wall of the "+s+" stage at 1 rank"))
	}
	defs = append(defs,
		layer("core.task_s", "s", "lower", "summed task seconds of one 1-rank run"),
		layer("core.tasks", "count", "higher", "distributed tasks of one run"),
		layer("core.bl_root_s", "s", "lower", "bl-triangulation stage wall minus its rank Busy at 1 rank: prepare + merge closures"),
		layer("core.inviscid_root_s", "s", "lower", "inviscid stage wall minus its rank Busy at 1 rank"),
		layer("core.allocs_k", "count", "lower", "thousand heap allocations of one 1-rank run"),
		layer("core.tris_per_s", "1/s", "higher", "triangles / wall_1r_s"),
		layer("core.speedup_2r", "ratio", "higher", "1-rank wall / 2-rank in-process wall"),
		layer("core.replay_match", "count", "higher", "1 when the layer replay reproduced the 1-rank pipeline mesh bit for bit"),

		layer("mesh.triangles", "count", "lower", "triangles of the 1-rank mesh"),
		layer("mesh.points", "count", "lower", "points of the 1-rank mesh"),
		layer("mesh.min_angle_deg", "deg", "higher", "smallest angle"),
		layer("mesh.max_aspect", "ratio", "higher", "largest aspect ratio (anisotropy reached)"),
		layer("mesh.build_s", "s", "lower", "Builder.AddTriangle over every triangle"),
		layer("mesh.selfaudit_s", "s", "lower", "Mesh.Audit"),
		layer("mesh.write_ascii_s", "s", "lower", "WriteASCII to memory"),
		layer("mesh.write_binary_s", "s", "lower", "WriteBinary to memory"),
		layer("mesh.read_binary_s", "s", "lower", "ReadBinary from memory"),
		layer("mesh.binary_mb", "MB", "lower", "size of the binary form"),

		layer("audit.prepare_s", "s", "lower", "Snapshot.Prepare"),
	)
	for _, c := range auditCheckNames {
		defs = append(defs, layer("audit.check."+c+"_s", "s", "lower", "wall of the "+c+" check in audit.Run"))
	}
	defs = append(defs,
		layer("audit.total_s", "s", "lower", "prepare + every check"),
		layer("audit.violations", "count", "lower", "violations found by audit.Run on the replayed mesh"),
		layer("audit.full_ok", "count", "higher", "1 when the in-pipeline Config.Audit run passed (recorded, not gated)"),
		layer("audit.adapted_s", "s", "lower", "audit.Run with the Adapted profile on the workload's output mesh"),

		layer("trace.overhead_frac", "ratio", "lower", "traced 1-rank wall / untraced median - 1"),
		layer("trace.events", "count", "lower", "events recorded by the traced 1-rank run"),
		layer("trace.span_ns", "ns", "lower", "Begin+End on a live tracer"),

		layer("adapt.sweeps", "count", "lower", "operator sweeps of one cycle"),
		layer("adapt.splits", "count", "lower", "edge splits"),
		layer("adapt.collapses", "count", "lower", "edge collapses"),
		layer("adapt.swaps", "count", "lower", "edge swaps"),
		layer("adapt.smooths", "count", "lower", "vertex moves"),
		layer("adapt.conflict_frac", "ratio", "lower", "plans rejected by the claim sweep / plans selected or rejected"),
		layer("adapt.edges", "count", "lower", "edges after the cycle"),
		layer("adapt.ops_per_s", "1/s", "higher", "committed operations per second at 1 worker"),
		layer("adapt.speedup_2w", "ratio", "higher", "1-worker wall / 2-worker wall"),
		layer("metric.analytic_s", "s", "lower", "metric.Analytic over the mesh vertices"),
		layer("metric.fieldstats_s", "s", "lower", "metric.FieldStats over the mesh edges"),

		layer("meshd.requests", "count", "higher", "completed requests"),
		layer("meshd.cache_hit_frac", "ratio", "higher", "X-Cache: hit responses / 200s"),
		layer("meshd.hit_ms_p50", "ms", "lower", "median latency of cache hits"),
		layer("meshd.miss_ms_p50", "ms", "lower", "median latency of cache misses"),
		layer("meshd.miss_ms_p95", "ms", "lower", "p95 latency of cache misses"),
		layer("meshd.poly_miss_ms_p50", "ms", "lower", "median latency of misses sent as inline .poly"),
		layer("meshd.rejected_frac", "ratio", "lower", "503s / requests sent"),
		layer("meshd.body_mb_per_s", "MB/s", "higher", "response bytes received per second"),
		layer("meshd.rss_peak_mb", "MB", "lower", "VmHWM of the server process"),
		layer("meshd.start_s", "s", "lower", "exec to first 200 from /readyz"),
		layer("meshd.metrics_scrape_ms", "ms", "lower", "GET /metrics after the load"),
	)
	return defs
}

// measure is one reported metric value: the median of its samples with
// the quartiles and the sample count beside it.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
	// Label is "overhead-only" on a speed-up measured with fewer than two
	// usable CPUs: the number is the cost of the parallel path, not a
	// speed-up, and the result file carries null for it.
	Label string `json:"label,omitempty"`
}

// speedupMetrics follow the overhead-only rule.
var speedupMetrics = []string{"core.speedup_2r", "delaunay.kw2_speedup", "adapt.speedup_2w"}

// measureJSON is the file form: a labelled value is written as null with
// the measurement beside it.
type measureJSON struct {
	Value    *float64 `json:"value"`
	Measured *float64 `json:"measured,omitempty"`
	Unit     string   `json:"unit"`
	Q1       float64  `json:"q1"`
	Q3       float64  `json:"q3"`
	N        int      `json:"n"`
	Label    string   `json:"label,omitempty"`
}

func (m measure) MarshalJSON() ([]byte, error) {
	j := measureJSON{Unit: m.Unit, Q1: m.Q1, Q3: m.Q3, N: m.N, Label: m.Label}
	if m.Label != "" {
		j.Measured = &m.Value
	} else {
		j.Value = &m.Value
	}
	return json.Marshal(j)
}

func (m *measure) UnmarshalJSON(b []byte) error {
	var j measureJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*m = measure{Unit: j.Unit, Q1: j.Q1, Q3: j.Q3, N: j.N, Label: j.Label}
	if j.Value != nil {
		m.Value = *j.Value
	} else if j.Measured != nil {
		m.Value = *j.Measured
	}
	return nil
}

// collector gathers samples per metric during a workload and folds them
// into measures at the end.
type collector struct {
	samples map[string][]float64
}

func newCollector() *collector {
	return &collector{samples: map[string][]float64{}}
}

// add appends one sample of a sampled metric.
func (c *collector) add(name string, v float64) {
	c.samples[name] = append(c.samples[name], v)
}

// set records a single-valued metric, replacing earlier samples.
func (c *collector) set(name string, v float64) {
	c.samples[name] = []float64{v}
}

func (c *collector) has(name string) bool { return len(c.samples[name]) > 0 }

// median returns the median of the samples gathered so far (0 if none).
func (c *collector) median(name string) float64 {
	return median(c.samples[name])
}

// measures folds the samples into the reported form. Every declared
// metric is present: a layer the workload did not exercise reads 0.
func (c *collector) measures() map[string]measure {
	out := make(map[string]measure, len(metricDefs))
	for _, d := range metricDefs {
		s := c.samples[d.Name]
		q1, q3 := quartiles(s)
		out[d.Name] = measure{Value: median(s), Unit: d.Unit, Q1: q1, Q3: q3, N: len(s)}
	}
	return out
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the linearly interpolated q-quantile (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quartiles(v []float64) (q1, q3 float64) {
	return quantile(v, 0.25), quantile(v, 0.75)
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// maxOverMean is the imbalance ratio used for leaves, regions and ranks.
func maxOverMean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	mx := v[0]
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	mean := sum(v) / float64(len(v))
	if mean == 0 {
		return 0
	}
	return mx / mean
}
