package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"pamg2d/internal/audit"
	"pamg2d/internal/mesh"
)

// runCtx is what every workload receives: the generated inputs (never
// the seed), how long to measure, and where artifacts go.
type runCtx struct {
	in      *inputs
	seconds float64
	traced  bool
	quick   bool
	outDir  string
	host    *hostInfo
	log     io.Writer
	// cal samples the host's speed during the workload in flight.
	cal *calibrator
}

// budget is the length of the timed phase. A traced run spends half of
// it on timed repetitions so that the traced pass, the layer replay and
// the probes fit in the same wall budget.
func (rc *runCtx) budget() time.Duration {
	s := rc.seconds
	if rc.traced {
		s /= 2
	}
	return time.Duration(s * float64(time.Second))
}

// reps scales a repetition floor: the floors of ISSUE 12 for an untraced
// run, a third of them (at least 2) for a traced one, 1 for -quick.
func (rc *runCtx) reps(full int) int {
	switch {
	case rc.quick:
		return 1
	case rc.traced:
		if full/3 < 2 {
			return 2
		}
		return full / 3
	}
	return full
}

// parallelism samples host.parallelism (one short trial under -quick).
func (rc *runCtx) parallelism() float64 {
	if rc.quick {
		return measureParallelism(1)
	}
	return measureParallelism(3)
}

func (rc *runCtx) logf(format string, args ...any) {
	fmt.Fprintf(rc.log, format+"\n", args...)
}

// meshRecord makes a cross-commit mesh change visible in the result.
type meshRecord struct {
	Label     string `json:"label"`
	Triangles int    `json:"triangles"`
	Points    int    `json:"points"`
	SHA256    string `json:"sha256"`
}

// workloadResult is one workload's section of the result file.
type workloadResult struct {
	Name      string             `json:"name"`
	Why       string             `json:"why"`
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]measure `json:"metrics"`
	Meshes    []meshRecord       `json:"meshes"`
	// SelfTimeS is the per-layer self time of the traced pass and
	// TracedWallS its wall; the former sums to the latter.
	SelfTimeS   map[string]float64 `json:"self_time_s,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"`

	col *collector
}

func newResult(name string) *workloadResult {
	return &workloadResult{Name: name, Why: workloadWhy[name], col: newCollector()}
}

// op counts one attempted operation; a non-nil err makes it a failed one.
func (r *workloadResult) op(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

func (r *workloadResult) fail(err error) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func (r *workloadResult) record(label string, m *mesh.Mesh, sha string) {
	r.Meshes = append(r.Meshes, meshRecord{Label: label, Triangles: m.NumTriangles(), Points: m.NumPoints(), SHA256: sha})
}

// finish folds the samples into measures and closes the result.
func (r *workloadResult) finish(rc *runCtx, start time.Time) *workloadResult {
	if r.Attempted == 0 {
		r.Attempted = 1
		r.fail(fmt.Errorf("%s: no operation was attempted", r.Name))
	}
	r.col.set("fail_frac", float64(r.Failed)/float64(r.Attempted))
	// End-to-end times are reported host-calibrated; what the clock read
	// stays beside them under host.*.
	factor := rc.cal.factor()
	r.col.set("host.calib_ms", 1e3*median(rc.cal.samples))
	for _, name := range []string{"wall_1r_s", "wall_2r_s", "setup_s"} {
		raw := r.col.samples[name]
		r.col.samples["host.raw_"+name] = append([]float64(nil), raw...)
		for i := range raw {
			raw[i] *= factor
		}
	}
	r.Metrics = r.col.measures()
	if rc.traced {
		// Speed-ups are only speed-ups when two CPUs were usable around
		// the workload; otherwise the number is the parallel path's cost.
		rc.host.ParallelismAfter = rc.parallelism()
		if !rc.host.usableCPUs2() {
			for _, name := range speedupMetrics {
				m := r.Metrics[name]
				m.Label = "overhead-only"
				r.Metrics[name] = m
			}
		}
	}
	r.Correct = r.Failed == 0
	r.WallS = time.Since(start).Seconds()
	return r
}

// finishTrace closes the traced pass: per-layer self times into the
// result, spans to <workload>.spans.json.
func (r *workloadResult) finishTrace(rc *runCtx, rec *recorder, root int) error {
	r.TracedWallS = rec.end(root, nil).Seconds()
	if err := validateSpans(rec.spans); err != nil {
		return err
	}
	r.SelfTimeS = selfTimes(rec.spans)
	return writeJSONFile(filepath.Join(rc.outDir, r.Name+".spans.json"), rec.spans)
}

func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// meshHash is the identity of a mesh across runs, ranks and transports:
// sha256 of its binary form.
func meshHash(m *mesh.Mesh) (string, error) {
	var buf bytes.Buffer
	if err := m.WriteBinary(&buf); err != nil {
		return "", err
	}
	return hashBytes(buf.Bytes()), nil
}

// auditFresh runs the given checks on a fresh snapshot of the bare mesh
// and returns an error naming the first violations, if any.
func auditFresh(m *mesh.Mesh, checks []audit.Check) error {
	rep, err := runAudit(&audit.Snapshot{Mesh: m}, checks)
	if err != nil {
		return err
	}
	return rep.Error()
}

// runAudit is audit.Run with a panic turned into an error: the boundary
// check divides by zero when it reports a surface segment no triangle
// uses (internal/audit/checks.go, the unrecovered-segment branch), which
// coarse multi-element meshes reach.
func runAudit(s *audit.Snapshot, checks []audit.Check) (rep *audit.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("audit panicked: %v", p)
		}
	}()
	return audit.Run(s, checks), nil
}

// memMark reads the allocation counters around one operation.
type memMark struct{ bytes, mallocs uint64 }

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{ms.TotalAlloc, ms.Mallocs}
}

func (m memMark) since() (mb, allocsK float64) {
	now := markMem()
	return float64(now.bytes-m.bytes) / 1e6, float64(now.mallocs-m.mallocs) / 1e3
}

// rotation picks the next mode of a weighted round-robin: the one whose
// count is furthest behind its weight, first listed on ties.
type rotation struct {
	weight []int
	floor  []int
	count  []int
}

func (ro *rotation) next() int {
	best := 0
	for i := range ro.weight {
		if ro.count[i]*ro.weight[best] < ro.count[best]*ro.weight[i] {
			best = i
		}
	}
	ro.count[best]++
	return best
}

// done reports whether every mode reached its floor.
func (ro *rotation) done() bool {
	for i := range ro.floor {
		if ro.count[i] < ro.floor[i] {
			return false
		}
	}
	return true
}
