package main

import (
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// hostInfo lets a reader tell a run that only got one core from one that
// got two.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CgroupCPU  string `json:"cgroup_cpu_max"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	// ParallelismBefore/After are host.parallelism sampled around the
	// workloads: 2 x (wall of one spinning goroutine) / (wall of two
	// spinning at once), 1.0 when the two share one core, 2.0 when each
	// has its own.
	ParallelismBefore float64 `json:"parallelism_before"`
	ParallelismAfter  float64 `json:"parallelism_after"`
}

// usableCPUs2 reports whether speed-up figures mean anything on this
// host: both parallelism samples saw at least half of a second core.
func (h *hostInfo) usableCPUs2() bool {
	return h.ParallelismBefore >= 1.5 && h.ParallelismAfter >= 1.5
}

func readHost() hostInfo {
	h := hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CgroupCPU:  "unknown",
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/sys/fs/cgroup/cpu.max"); err == nil {
		h.CgroupCPU = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitCommit = s.Value
			}
		}
	}
	if h.GitCommit == "unknown" {
		// The driver's checkout is not a repository; a failure here is
		// expected there and leaves "unknown".
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.GitCommit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// calNominal is what one calibrationKernel call takes on the reference
// host (2 vCPUs, go1.24) while no neighbour is contending for its memory
// system. End-to-end times are reported in seconds of that state.
const calNominal = 0.035

// calibrator samples the host's current speed between the repetitions of
// a workload. The reference host slows down by 10-30 % for minutes at a
// time when neighbours load the memory system: a pure ALU loop does not
// see it (4 % spread while core.Generate moves by 18 %), a kernel that
// walks and sorts a few MB does (the ratio of the two stays within 5 %).
type calibrator struct {
	last    time.Time
	samples []float64
	buf     []float64
}

func newCalibrator() *calibrator { return &calibrator{buf: make([]float64, 300_000)} }

// sample runs the kernel once per 300 ms that passed since it last ran,
// at most six times: about a tenth of a workload's wall goes to
// calibration whether its repetitions take 0.2 s or 3 s, which is some
// fifty samples under the factor of a 16 s run.
func (c *calibrator) sample() {
	n := int(time.Since(c.last) / (300 * time.Millisecond))
	if n > 6 {
		n = 6
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		calibrationKernel(c.buf)
		c.last = time.Now()
		c.samples = append(c.samples, c.last.Sub(t0).Seconds())
	}
}

// factor converts a time measured during this workload into seconds of
// the reference host's uncontended state.
func (c *calibrator) factor() float64 {
	if len(c.samples) == 0 {
		return 1
	}
	return calNominal / median(c.samples)
}

// calibrationKernel is a fixed piece of memory-bound work that shares no
// code with the program under test: fill 2.4 MB with a xorshift stream,
// sort it, index every eighth value in a map.
func calibrationKernel(buf []float64) {
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = float64(x>>11) / (1 << 53)
	}
	sort.Float64s(buf)
	m := make(map[int]float64)
	for i := 0; i < len(buf); i += 8 {
		m[i] = buf[i]
	}
	spinSink.Add(uint64(len(m)))
}

// spinSink keeps the compiler from deleting the spin loop.
var spinSink atomic.Uint64

func spin(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

// measureParallelism compares the fastest of a few short single-goroutine
// spins with the fastest of as many two-goroutine spins, so one
// preemption does not read as a lost (or a gained) core.
func measureParallelism(trials int) float64 {
	const n = 30_000_000 // roughly 30 ms
	var one, two time.Duration
	for trial := 0; trial < trials; trial++ {
		t0 := time.Now()
		spin(n)
		if d := time.Since(t0); trial == 0 || d < one {
			one = d
		}
		t0 = time.Now()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spin(n)
			}()
		}
		wg.Wait()
		if d := time.Since(t0); trial == 0 || d < two {
			two = d
		}
	}
	return 2 * one.Seconds() / two.Seconds()
}
