// Command meshload drives a running meshd with concurrent mesh requests
// and reports throughput and latency percentiles: the interactive and
// CI-smoke load client. (The measured service workload, with a fixed
// request stream and verified bodies, is bench/'s meshd-mix.)
//
//	meshd -listen 127.0.0.1:8080 &
//	meshload -url http://127.0.0.1:8080 -n 32 -concurrency 4 -requests 40
//
// With -once it sends a single request and streams the mesh body to
// stdout (exit 1 on any non-200), which is how the CI smoke pipes a
// served mesh through `meshcheck -strict`. With -metrics it also writes
// the client-side view — request-latency histogram, per-status,
// cache-hit, and degraded-completion counters — as a standard
// pamg2d-metrics/1 registry, the same schema meshd's /metrics exports.
// Responses carrying an X-Degraded header (the serving run lost ranks
// mid-generation and completed on the survivors) count as successes but
// are tallied separately in the summary; -report-degraded additionally
// warns about them on stderr.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pamg2d/internal/trace"
)

// summary is the machine-readable result (-save); the CI smoke reads its
// field names with jq.
type summary struct {
	URL           string  `json:"url"`
	Concurrency   int     `json:"concurrency"`
	Requests      int     `json:"requests"`
	Errors        int     `json:"errors"`
	CacheHits     int     `json:"cache_hits"`
	Degraded      int     `json:"degraded"`
	Seconds       float64 `json:"seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P90Ms         float64 `json:"p90_ms"`
	P99Ms         float64 `json:"p99_ms"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "meshload: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meshload", flag.ContinueOnError)
	var (
		url         = fs.String("url", "http://127.0.0.1:8080", "meshd base URL")
		geometry    = fs.String("geometry", "naca0012", "request geometry: naca0012 | 30p30n")
		n           = fs.Int("n", 32, "surface resolution (half-points per element)")
		polyPath    = fs.String("poly", "", "send this .poly file as the geometry instead of -geometry")
		audit       = fs.Bool("audit", false, "request server-side invariant audit")
		distinct    = fs.Int("distinct", 1, "cycle this many distinct geometries (n, n+4, ...) to control the cache-hit mix")
		concurrency = fs.Int("concurrency", 4, "concurrent client connections")
		requests    = fs.Int("requests", 20, "total requests to send (ignored with -duration)")
		duration    = fs.Duration("duration", 0, "send for this long instead of a fixed count")
		timeout     = fs.Duration("timeout", 2*time.Minute, "per-request client timeout")
		once        = fs.Bool("once", false, "send one request, stream the mesh body to stdout")
		reportDeg   = fs.Bool("report-degraded", false, "warn on stderr when completions were served degraded (X-Degraded: the run lost ranks and finished on the survivors)")
		save        = fs.String("save", "", "also write the JSON summary to this file")
		metricsOut  = fs.String("metrics", "", "write a client-side metrics registry (latency histogram, status counters) to this JSON file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var poly string
	if *polyPath != "" {
		b, err := os.ReadFile(*polyPath)
		if err != nil {
			return err
		}
		poly = string(b)
	}
	body := func(i int) ([]byte, error) {
		req := map[string]any{
			"params": map[string]any{"audit": *audit},
		}
		if poly != "" {
			req["poly"] = poly
		} else {
			req["geometry"] = *geometry
			req["n"] = *n + 4*(i%max(1, *distinct))
		}
		return json.Marshal(req)
	}
	client := &http.Client{Timeout: *timeout}

	if *once {
		b, err := body(0)
		if err != nil {
			return err
		}
		resp, err := client.Post(*url+"/mesh", "application/json", bytes.NewReader(b))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		if d := resp.Header.Get("X-Degraded"); d != "" && *reportDeg {
			fmt.Fprintf(os.Stderr, "meshload: mesh served degraded (%s rank(s) lost mid-run)\n", d)
		}
		_, err = io.Copy(os.Stdout, resp.Body)
		return err
	}

	// The client-side registry mirrors what the server's /metrics sees from
	// its end: the same schema the engine exports, so the validators
	// consume both without special cases. Always populated; only written
	// with -metrics.
	reg := trace.NewMetrics()

	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      atomic.Int64
		hits      atomic.Int64
		degraded  atomic.Int64
		next      atomic.Int64
	)
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}
	shouldStop := func(i int64) bool {
		if !deadline.IsZero() {
			return time.Now().After(deadline)
		}
		return i >= int64(*requests)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if shouldStop(i) {
					return
				}
				b, err := body(int(i))
				if err != nil {
					errs.Add(1)
					reg.Count("load.errors", 1)
					continue
				}
				reg.Count("load.requests", 1)
				t0 := time.Now()
				resp, err := client.Post(*url+"/mesh", "application/json", bytes.NewReader(b))
				if err != nil {
					errs.Add(1)
					reg.Count("load.errors", 1)
					reg.Count("load.transport_errors", 1)
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				dt := time.Since(t0)
				reg.Count(fmt.Sprintf("load.status.%d", resp.StatusCode), 1)
				reg.Observe("load.request.seconds", dt.Seconds())
				if resp.StatusCode != http.StatusOK {
					errs.Add(1)
					reg.Count("load.errors", 1)
					continue
				}
				if resp.Header.Get("X-Cache") == "hit" {
					hits.Add(1)
					reg.Count("load.cache_hits", 1)
				}
				// A 200 carrying X-Degraded completed on a shrunken fabric:
				// a success for throughput purposes, but tallied apart so a
				// load run can tell how many of its meshes came from
				// degraded runs.
				if resp.Header.Get("X-Degraded") != "" {
					degraded.Add(1)
					reg.Count("load.degraded", 1)
				}
				mu.Lock()
				latencies = append(latencies, dt)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	s := summary{
		URL:         *url,
		Concurrency: *concurrency,
		Requests:    len(latencies) + int(errs.Load()),
		Errors:      int(errs.Load()),
		CacheHits:   int(hits.Load()),
		Degraded:    int(degraded.Load()),
		Seconds:     elapsed.Seconds(),
		P50Ms:       pct(0.50),
		P90Ms:       pct(0.90),
		P99Ms:       pct(0.99),
	}
	if s.Seconds > 0 {
		s.ThroughputRPS = float64(len(latencies)) / s.Seconds
	}
	out, err := json.MarshalIndent(&s, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if _, err := os.Stdout.Write(out); err != nil {
		return err
	}
	if *save != "" {
		if err := os.WriteFile(*save, out, 0o644); err != nil {
			return err
		}
	}
	if *metricsOut != "" {
		reg.Gauge("load.concurrency", float64(*concurrency))
		f, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := reg.WriteMetrics(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if *reportDeg && s.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "meshload: %d of %d completions served degraded (the run lost ranks and finished on the survivors)\n",
			s.Degraded, s.Requests)
	}
	if s.Errors > 0 {
		return fmt.Errorf("%d of %d requests failed", s.Errors, s.Requests)
	}
	return nil
}
