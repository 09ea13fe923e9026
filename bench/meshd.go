package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/audit"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
	"pamg2d/internal/mesh"
)

// meshdServer is one running cmd/meshd, built from the checkout's source
// into a temporary directory under the benchmark's output directory.
type meshdServer struct {
	cmd    *exec.Cmd
	dir    string
	base   string
	stderr bytes.Buffer
	client *http.Client
	// startS is exec-to-ready.
	startS float64
}

// startMeshd builds and starts the server the way ISSUE 12 fixes it:
// 2 ranks, 2 concurrent runs, queue 8, cache 8, logging off. -pprof is
// added so the benchmark can read the server's allocation counters.
func startMeshd(rc *runCtx) (*meshdServer, error) {
	dir, err := os.MkdirTemp(rc.outDir, "tmp-meshd-")
	if err != nil {
		return nil, err
	}
	s := &meshdServer{dir: dir}
	bin := filepath.Join(dir, "meshd")
	if abs, aerr := filepath.Abs(bin); aerr == nil {
		bin = abs
	}
	if out, err := exec.Command("go", "build", "-o", bin, "pamg2d/cmd/meshd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("go build cmd/meshd: %v: %s", err, out)
	}

	// A port that was free a moment ago; a lost race shows as a start
	// failure and the caller's retry picks another.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	s.base = "http://" + addr
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	s.cmd = exec.Command(bin, "-listen", addr, "-ranks", "2", "-concurrency", "2",
		"-queue", "8", "-cache", "8", "-log-level", "off", "-pprof")
	s.cmd.Stderr = &s.stderr
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	for {
		resp, err := s.client.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Since(t0) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("meshd not ready after 10s: %s", s.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.startS = time.Since(t0).Seconds()
	return s, nil
}

// startMeshdRetry tolerates a lost port race.
func startMeshdRetry(rc *runCtx) (s *meshdServer, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if s, err = startMeshd(rc); err == nil {
			return s, nil
		}
	}
	return nil, err
}

// stop ends the server process and waits for it.
func (s *meshdServer) stop() {
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() {
			s.cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			s.cmd.Process.Kill()
			<-done
		}
	}
	s.client.CloseIdleConnections()
	os.RemoveAll(s.dir)
}

// reply is one POST /mesh outcome. Body is valid until the caller's next
// post on the same buffer.
type reply struct {
	status  int
	cache   string
	latency time.Duration
	body    []byte
}

// post sends one request and reads the whole response; latency runs from
// send to last body byte.
func (s *meshdServer) post(body []byte, buf *bytes.Buffer) (reply, error) {
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/mesh", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), latency: lat, body: buf.Bytes()}, nil
}

func (s *meshdServer) get(path string) ([]byte, time.Duration, error) {
	t0 := time.Now()
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, time.Since(t0), err
}

var memStatsRE = regexp.MustCompile(`(?m)^# (TotalAlloc|Mallocs) = (\d+)$`)

// allocCounters reads the server's cumulative allocated bytes and
// allocation count from the heap profile's runtime.MemStats footer.
func (s *meshdServer) allocCounters() (memMark, error) {
	b, _, err := s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return memMark{}, err
	}
	var m memMark
	for _, f := range memStatsRE.FindAllSubmatch(b, -1) {
		v, err := strconv.ParseUint(string(f[2]), 10, 64)
		if err != nil {
			return memMark{}, err
		}
		if string(f[1]) == "TotalAlloc" {
			m.bytes = v
		} else {
			m.mallocs = v
		}
	}
	if m.bytes == 0 || m.mallocs == 0 {
		return memMark{}, fmt.Errorf("no TotalAlloc/Mallocs lines in the heap profile")
	}
	return m, nil
}

// rssPeakMB is VmHWM of the server process.
func (s *meshdServer) rssPeakMB() float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// latencyStats folds request outcomes into the meshd per-layer metrics.
type latencyStats struct {
	all, hit, miss, polyMiss []float64
	sent, ok, rejected       int
	bytes                    int64
}

func (l *latencyStats) observe(rp reply, poly bool) {
	l.sent++
	switch rp.status {
	case http.StatusOK:
		l.ok++
	case http.StatusServiceUnavailable:
		l.rejected++
		return
	default:
		return
	}
	ms := float64(rp.latency.Nanoseconds()) / 1e6
	l.all = append(l.all, ms)
	l.bytes += int64(len(rp.body))
	if rp.cache == "hit" {
		l.hit = append(l.hit, ms)
		return
	}
	l.miss = append(l.miss, ms)
	if poly {
		l.polyMiss = append(l.polyMiss, ms)
	}
}

func (l *latencyStats) report(col *collector, wall time.Duration) {
	col.set("meshd.requests", float64(l.ok))
	col.set("meshd.req_per_s", float64(l.ok)/wall.Seconds())
	col.set("meshd.lat_p50_ms", quantile(l.all, 0.5))
	col.set("meshd.lat_p95_ms", quantile(l.all, 0.95))
	col.set("meshd.hit_ms_p50", quantile(l.hit, 0.5))
	col.set("meshd.miss_ms_p50", quantile(l.miss, 0.5))
	col.set("meshd.miss_ms_p95", quantile(l.miss, 0.95))
	col.set("meshd.poly_miss_ms_p50", quantile(l.polyMiss, 0.5))
	if l.ok > 0 {
		col.set("meshd.cache_hit_frac", float64(len(l.hit))/float64(l.ok))
	}
	if l.sent > 0 {
		col.set("meshd.rejected_frac", float64(l.rejected)/float64(l.sent))
	}
	col.set("meshd.body_mb_per_s", float64(l.bytes)/1e6/wall.Seconds())
}

// serverFootprint records what is read from the server after the load.
func (s *meshdServer) footprint(col *collector) error {
	_, d, err := s.get("/metrics")
	col.set("meshd.metrics_scrape_ms", float64(d.Nanoseconds())/1e6)
	col.set("meshd.rss_peak_mb", s.rssPeakMB())
	col.set("meshd.start_s", s.startS)
	return err
}

// mixState is the shared state of the meshd-mix clients.
type mixState struct {
	rc     *runCtx
	srv    *meshdServer
	r      *workloadResult
	cursor atomic.Int64

	// mu guards the result, the latency statistics and the maps below.
	mu sync.Mutex
	// first holds each catalogue entry's first 200 body: the reference
	// every later response of that entry must equal (cache hit = cache
	// miss), verified by the structural audit after the load.
	first map[int][]byte
	sha   map[int]string
}

// runBlock drives clients closed-loop clients through the next whole
// block of the request sequence.
func (ms *mixState) runBlock(clients int, stats *latencyStats, rec *recorder, parent int) {
	seq := ms.rc.in.Sequence
	start := ms.cursor.Load()
	end := start + int64(len(seq))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := ms.cursor.Add(1) - 1
				if i >= end {
					ms.cursor.Store(end)
					return
				}
				k := seq[int(i)%len(seq)]
				e := &ms.rc.in.Catalogue[k]
				id := 0
				if rec != nil {
					id = rec.begin(parent, "service", "meshd", "POST /mesh")
				}
				rp, err := ms.srv.post(e.Body, &buf)
				if rec != nil {
					hit := 0.0
					if rp.cache == "hit" {
						hit = 1
					}
					rec.end(id, map[string]float64{"entry": float64(k), "hit": hit, "bytes": float64(len(rp.body))})
				}
				if err == nil && rp.status != http.StatusOK {
					err = fmt.Errorf("%s n=%d: status %d: %.200s", e.Geometry, e.N, rp.status, rp.body)
				}
				sha := hashBytes(rp.body)
				ms.mu.Lock()
				if err == nil {
					err = ms.checkBody(k, rp.body, sha)
				}
				ms.r.op(err)
				stats.observe(rp, e.Poly)
				ms.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// checkBody compares a response with the entry's first response; the
// caller holds mu.
func (ms *mixState) checkBody(k int, body []byte, sha string) error {
	if want, ok := ms.sha[k]; ok {
		if sha != want {
			e := ms.rc.in.Catalogue[k]
			return fmt.Errorf("%s n=%d: response %s differs from the entry's first response %s", e.Geometry, e.N, sha[:12], want[:12])
		}
		return nil
	}
	ms.sha[k] = sha
	ms.first[k] = append([]byte(nil), body...)
	return nil
}

// timedBlock runs one whole block with the given number of clients and
// returns its wall. Blocks are identical, so the walls of one client count
// are repeated measurements of one quantity.
func (ms *mixState) timedBlock(clients int, stats *latencyStats) time.Duration {
	ms.rc.cal.sample()
	t0 := time.Now()
	ms.runBlock(clients, stats, nil, 0)
	return time.Since(t0)
}

// meshdReference is the in-process equivalent of the catalogue's largest
// request (its last entry: 30p30n at the largest n, server defaults), for
// the layer replay: what one miss costs without the service.
func meshdReference(rc *runCtx) core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.ThreeElement(rc.in.Catalogue[len(rc.in.Catalogue)-1].N)
	return cfg
}

// runMeshdMix is the service workload: a closed loop over the catalogue,
// first with one client, then with two.
func runMeshdMix(rc *runCtx) *workloadResult {
	start := time.Now()
	r := newResult(wlMeshd)
	col := r.col

	// Set-up: build + start, three rounds so setup_s is a median; then one
	// block of warm-up requests so the cache is in its steady state.
	rounds := 3
	if rc.quick {
		rounds = 1
	}
	var srv *meshdServer
	var setups []float64
	for round := 0; round < rounds; round++ {
		if srv != nil {
			srv.stop()
		}
		rc.cal.sample()
		t0 := time.Now()
		var err error
		if srv, err = startMeshdRetry(rc); err != nil {
			r.op(fmt.Errorf("meshd set-up: %w", err))
			return r.finish(rc, start)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()
	ms := &mixState{rc: rc, srv: srv, r: r, first: map[int][]byte{}, sha: map[int]string{}}
	t0 := time.Now()
	ms.runBlock(1, &latencyStats{}, nil, 0)
	col.set("setup_s", median(setups)+time.Since(t0).Seconds())

	// Timed phase: whole blocks, one client and two clients alternating
	// (as the rank counts of the generation workloads do, so a drift of the
	// host's speed reaches both alike), stopping at the pair boundary
	// nearest to the budget.
	var one, two latencyStats
	var wall2 time.Duration
	perBlock := float64(len(rc.in.Sequence))
	t0 = time.Now()
	for pairs := 1; ; pairs++ {
		alloc0, aerr := srv.allocCounters()
		w1 := ms.timedBlock(1, &one)
		alloc1, aerr2 := srv.allocCounters()
		if aerr != nil || aerr2 != nil {
			r.fail(fmt.Errorf("reading the server's allocation counters: %v %v", aerr, aerr2))
			break
		}
		w2 := ms.timedBlock(2, &two)
		wall2 += w2
		col.add("wall_1r_s", w1.Seconds()/perBlock)
		col.add("wall_2r_s", w2.Seconds()/perBlock)
		col.add("alloc_mb", float64(alloc1.bytes-alloc0.bytes)/1e6/perBlock)
		col.add("allocs_k", float64(alloc1.mallocs-alloc0.mallocs)/1e3/perBlock)
		if total := time.Since(t0); total+total/time.Duration(2*pairs) >= rc.budget() {
			break
		}
	}
	two.report(col, wall2)

	// Every distinct response must be a sound mesh.
	for k, body := range ms.first {
		e := rc.in.Catalogue[k]
		m, err := mesh.ReadASCII(bytes.NewReader(body))
		if err == nil {
			err = auditFresh(m, audit.Structural())
		}
		if err != nil {
			r.fail(fmt.Errorf("%s n=%d: response mesh: %w", e.Geometry, e.N, err))
			continue
		}
		poly := ""
		if e.Poly {
			poly = "-poly"
		}
		r.record(fmt.Sprintf("%s-n%d%s", e.Geometry, e.N, poly), m, ms.sha[k])
	}
	if !rc.traced {
		if err := srv.footprint(col); err != nil {
			r.fail(err)
		}
		return r.finish(rc, start)
	}

	// Traced pass: one more block with a span per request, then the
	// in-process reference of a miss through every layer.
	rec := newRecorder()
	root := rec.begin(0, "", "bench", "traced-pass")
	ms.runBlock(1, &latencyStats{}, rec, root)
	if err := srv.footprint(col); err != nil {
		r.fail(err)
	}
	spec := &genSpec{name: wlMeshd, cfg: meshdReference(rc), auditReps: 1, keepTrace: true}
	referencePass(rc, spec, r, rec, root, false)
	if err := r.finishTrace(rc, rec, root); err != nil {
		r.fail(err)
	}
	return r.finish(rc, start)
}

// serviceProbe pushes a generation workload's own config through a fresh
// meshd, as inline .poly with the workload's parameters: one miss, then
// hits. The binary response must be the in-process 2-rank mesh, so the
// service path is held to the same mesh identity as every other path.
func serviceProbe(rc *runCtx, rec *recorder, parent int, r *workloadResult, cfg core.Config, want2r string) {
	const run = "service"
	col := r.col
	gr, ok := cfg.BL.Growth.(growth.Geometric)
	if !ok {
		r.fail(fmt.Errorf("service probe: boundary-layer growth %T is not geometric", cfg.BL.Growth))
		return
	}
	text, err := polyText(cfg.Geometry)
	if err != nil {
		r.fail(fmt.Errorf("service probe: %w", err))
		return
	}
	body, err := json.Marshal(meshRequestBody{Poly: text, Params: map[string]any{
		"bl_h0": gr.H0, "bl_ratio": gr.Ratio, "bl_layers": cfg.BL.MaxLayers,
		"h0": cfg.SurfaceH0, "gradation": cfg.Gradation, "hmax": cfg.HMax, "format": "binary",
	}})
	if err != nil {
		r.fail(err)
		return
	}
	var srv *meshdServer
	rec.in(parent, run, "meshd", "build+start", func() { srv, err = startMeshdRetry(rc) })
	if err != nil {
		r.op(fmt.Errorf("service probe: %w", err))
		return
	}
	defer srv.stop()
	var stats latencyStats
	var buf bytes.Buffer
	t0 := time.Now()
	// Until three hits are in: a single-element geometry hits from the
	// second request on, a multi-element .poly only when ReadPoly happens
	// to order its surfaces as in an earlier request (see makeCatalogue).
	for i := 0; i < 12 && len(stats.hit) < 3; i++ {
		id := rec.begin(parent, run, "meshd", "POST /mesh")
		rp, err := srv.post(body, &buf)
		rec.end(id, map[string]float64{"bytes": float64(len(rp.body))})
		if err == nil && rp.status != http.StatusOK {
			err = fmt.Errorf("status %d: %.200s", rp.status, rp.body)
		}
		if err == nil && hashBytes(rp.body) != want2r {
			err = fmt.Errorf("response %d (%s) is not the in-process 2-rank mesh", i, rp.cache)
		}
		if err != nil {
			err = fmt.Errorf("service probe: %w", err)
		}
		r.op(err)
		stats.observe(rp, true)
	}
	stats.report(col, time.Since(t0))
	rec.in(parent, run, "meshd", "GET /metrics", func() { err = srv.footprint(col) })
	if err != nil {
		r.fail(err)
	}
}
