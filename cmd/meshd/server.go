package main

// The meshd server: HTTP/JSON mesh generation over one shared core.Engine.
// Every request is a core run borrowing the engine's fabric; admission
// control (the engine's MaxConcurrent/MaxQueue) turns overload into fast
// 503s instead of pile-ups, per-request deadlines ride
// the existing context plumbing, and a geometry-keyed cache (SHA-256 of
// the canonical PSLG plus the meshing parameters) serves repeated
// geometries without re-meshing. Observability: GET /metrics exports the
// engine-lifetime registry (run totals and latencies plus the server's
// request/cache counters), and a request that asks for "trace": true
// deposits its Chrome trace-event export in a bounded ring readable at
// GET /trace/{id}.

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
	"pamg2d/internal/mpi"
	"pamg2d/internal/pslg"
	"pamg2d/internal/trace"
)

// meshParams is the tunable half of a request; zero values resolve to the
// same defaults the meshgen CLI uses, so an empty params object and a
// bare `meshgen` invocation describe the identical run.
type meshParams struct {
	BLH0      float64 `json:"bl_h0,omitempty"`
	BLRatio   float64 `json:"bl_ratio,omitempty"`
	BLLayers  int     `json:"bl_layers,omitempty"`
	SurfaceH0 float64 `json:"h0,omitempty"`
	Gradation float64 `json:"gradation,omitempty"`
	HMax      float64 `json:"hmax,omitempty"`
	Audit     bool    `json:"audit,omitempty"`
	Format    string  `json:"format,omitempty"`     // ascii | binary | vtk
	TimeoutMS int     `json:"timeout_ms,omitempty"` // capped by the server limit
	Trace     bool    `json:"trace,omitempty"`      // keep a trace export for GET /trace/{id}
}

// meshRequest is the POST /mesh body: one geometry (named airfoil or
// inline .poly text) plus the meshing parameters.
type meshRequest struct {
	// Geometry names a built-in airfoil configuration: "naca0012" or
	// "30p30n". Ignored when Poly is set.
	Geometry string  `json:"geometry,omitempty"`
	N        int     `json:"n,omitempty"`        // surface half-points (default 64)
	Farfield float64 `json:"farfield,omitempty"` // far-field half-width in chords (default 30)
	// Poly is the PSLG as Triangle .poly text, the same format
	// `meshgen -input`/`-write-poly` read and write.
	Poly   string     `json:"poly,omitempty"`
	Params meshParams `json:"params"`
}

// cacheEntry is one rendered result: the exact response bytes plus the
// headers that describe them. Entries are immutable once stored.
type cacheEntry struct {
	key         string
	body        []byte
	contentType string
	triangles   int
	points      int
}

// resultCache is a mutex-guarded LRU over rendered meshes, keyed by the
// geometry+params hash. The boundary-layer extrusion and decoupled
// refinement are deterministic, so a hit is byte-identical to a re-run.
type resultCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recent; values are *cacheEntry
	byKey map[string]*list.Element
}

func newResultCache(max int) *resultCache {
	return &resultCache{max: max, order: list.New(), byKey: make(map[string]*list.Element)}
}

func (rc *resultCache) get(key string) *cacheEntry {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	el, ok := rc.byKey[key]
	if !ok {
		return nil
	}
	rc.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

func (rc *resultCache) put(e *cacheEntry) {
	if rc == nil {
		return
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if el, ok := rc.byKey[e.key]; ok {
		rc.order.MoveToFront(el)
		el.Value = e
		return
	}
	rc.byKey[e.key] = rc.order.PushFront(e)
	for rc.order.Len() > rc.max {
		el := rc.order.Back()
		rc.order.Remove(el)
		delete(rc.byKey, el.Value.(*cacheEntry).key)
	}
}

// traceRing keeps the most recent per-request trace exports for
// GET /trace/{id}; a bounded ring so a long-lived server cannot
// accumulate traces without limit.
type traceRing struct {
	mu    sync.Mutex
	max   int
	order []string
	byID  map[string][]byte
}

func newTraceRing(max int) *traceRing {
	return &traceRing{max: max, byID: make(map[string][]byte)}
}

func (tr *traceRing) put(id string, data []byte) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if _, ok := tr.byID[id]; !ok {
		tr.order = append(tr.order, id)
		for len(tr.order) > tr.max {
			delete(tr.byID, tr.order[0])
			tr.order = tr.order[1:]
		}
	}
	tr.byID[id] = data
}

func (tr *traceRing) get(id string) ([]byte, bool) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	d, ok := tr.byID[id]
	return d, ok
}

// maxRequestBytes caps a POST /mesh body, inline .poly included; 16 MiB
// holds a .poly of some 200,000 vertices.
const maxRequestBytes = 16 << 20

// serverOptions sizes a meshd server.
type serverOptions struct {
	// MaxTimeout caps every request's generation deadline; a request's
	// own timeout_ms can only shorten it. 0 means 2 minutes.
	MaxTimeout time.Duration
	// CacheSize is the LRU capacity in rendered meshes; 0 means 64,
	// negative disables caching.
	CacheSize int
	// Logger, when non-nil, receives a structured record per handler
	// panic (request ID, path, stack). Request lifecycle records come
	// from the engine's own logger; nil disables server-side logging.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiling endpoints expose heap contents and must be
	// opted into.
	EnablePprof bool
}

// server is the HTTP layer over one shared engine.
type server struct {
	eng    *core.Engine
	opts   serverOptions
	cache  *resultCache
	traces *traceRing
	mux    *http.ServeMux
	nextID atomic.Int64
	ready  atomic.Bool
}

func newServer(eng *core.Engine, opts serverOptions) *server {
	if opts.MaxTimeout <= 0 {
		opts.MaxTimeout = 2 * time.Minute
	}
	if opts.CacheSize == 0 {
		opts.CacheSize = 64
	}
	s := &server{eng: eng, opts: opts, traces: newTraceRing(16)}
	s.ready.Store(true)
	if opts.CacheSize > 0 {
		s.cache = newResultCache(opts.CacheSize)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/mesh", s.handleMesh)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/trace/", s.handleTrace)
	if opts.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s
}

// setReady flips the /readyz answer; main turns it off when shutdown
// begins so load balancers drain the instance before connections close.
func (s *server) setReady(ready bool) { s.ready.Store(ready) }

// ServeHTTP stamps every request with an ID and converts handler panics
// into a 500 with a structured log record instead of a dropped
// connection: one bad request must not look like a server crash to every
// other client on the process.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reqID := fmt.Sprintf("r%06d", s.nextID.Add(1))
	w.Header().Set("X-Request-Id", reqID)
	defer func() {
		if p := recover(); p != nil {
			s.eng.Metrics().Count("server.panics", 1)
			if s.opts.Logger != nil {
				s.opts.Logger.Error("handler panic",
					"request_id", reqID, "method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			}
			// Best-effort: if the handler already wrote a header this is a
			// no-op on the status line, but the client still gets a body.
			s.httpError(w, http.StatusInternalServerError,
				fmt.Errorf("internal error (request %s)", reqID))
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// httpError writes a JSON error body with the given status and counts it.
func (s *server) httpError(w http.ResponseWriter, status int, err error) {
	s.eng.Metrics().Count(fmt.Sprintf("server.status.%d", status), 1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// buildConfig resolves a request into the core Config plus the canonical
// cache key: SHA-256 over the validated PSLG's .poly serialization and
// the normalized parameters, so equivalent requests (named geometry vs
// the identical inline poly, explicit defaults vs omitted fields) share
// one cache slot.
func (s *server) buildConfig(req *meshRequest) (core.Config, string, error) {
	cfg := core.DefaultConfig()
	p := req.Params

	// Normalize the parameter defaults to the meshgen CLI's.
	if p.BLH0 <= 0 {
		p.BLH0 = 4e-4
	}
	if p.BLRatio <= 0 {
		p.BLRatio = 1.25
	}
	if p.BLLayers <= 0 {
		p.BLLayers = 40
	}
	if p.SurfaceH0 <= 0 {
		p.SurfaceH0 = 0.02
	}
	if p.Gradation <= 0 {
		p.Gradation = 0.15
	}
	if p.HMax <= 0 {
		p.HMax = 4.0
	}
	if p.Format == "" {
		p.Format = "ascii"
	}

	var g *pslg.Graph
	var err error
	if req.Poly != "" {
		g, err = pslg.ReadPoly(strings.NewReader(req.Poly))
		if err != nil {
			return cfg, "", fmt.Errorf("poly: %w", err)
		}
	} else {
		n := req.N
		if n <= 0 {
			n = 64
		}
		ff := req.Farfield
		if ff <= 0 {
			ff = 30
		}
		var ac airfoil.Config
		switch req.Geometry {
		case "", "naca0012":
			ac = airfoil.Single(airfoil.NACA0012, n, ff)
		case "30p30n":
			ac = airfoil.ThreeElement(n)
			ac.FarfieldChords = ff
		default:
			return cfg, "", fmt.Errorf("unknown geometry %q", req.Geometry)
		}
		g, err = ac.Graph()
		if err != nil {
			return cfg, "", err
		}
	}
	cfg.CustomGraph = g
	cfg.BL.Growth = growth.Geometric{H0: p.BLH0, Ratio: p.BLRatio}
	cfg.BL.MaxLayers = p.BLLayers
	cfg.SurfaceH0 = p.SurfaceH0
	cfg.Gradation = p.Gradation
	cfg.HMax = p.HMax
	cfg.Ranks = 0 // adopt the engine's
	cfg.Audit = p.Audit
	switch p.Format {
	case "ascii", "binary", "vtk":
	default:
		return cfg, "", fmt.Errorf("unknown format %q", p.Format)
	}

	// The cache key: canonical geometry bytes + the result-determining
	// parameters (deadline and trace flags excluded — they do not change
	// the mesh). Params are hashed from the normalized copy, so omitted
	// and explicit defaults collide as they should.
	h := sha256.New()
	if err := g.WritePoly(h); err != nil {
		return cfg, "", err
	}
	keyed := p
	keyed.TimeoutMS = 0
	keyed.Trace = false
	if err := json.NewEncoder(h).Encode(&keyed); err != nil {
		return cfg, "", err
	}
	fmt.Fprintf(h, "ranks=%d", s.eng.Ranks())
	return cfg, hex.EncodeToString(h.Sum(nil)), nil
}

func contentTypeFor(format string) string {
	switch format {
	case "binary":
		return "application/octet-stream"
	case "vtk":
		return "text/plain; charset=utf-8"
	}
	return "text/plain; charset=utf-8"
}

func (s *server) handleMesh(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.httpError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	m := s.eng.Metrics()
	m.Count("server.requests", 1)
	t0 := time.Now()

	// A field the server does not know is refused by name, never meshed
	// with the default in its place and cached; a body past the cap is cut
	// off before the decoder buffers it.
	var req meshRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		s.httpError(w, status, fmt.Errorf("decode request: %w", err))
		return
	}
	cfg, key, err := s.buildConfig(&req)
	if err != nil {
		s.httpError(w, http.StatusBadRequest, err)
		return
	}

	// The request ID was assigned by ServeHTTP; reuse it as the run's
	// correlation ID so engine log records and trace-ring entries share it.
	reqID := w.Header().Get("X-Request-Id")
	cfg.RunID = reqID

	if e := s.cache.get(key); e != nil {
		m.Count("server.cache.hits", 1)
		m.Observe("server.request.seconds", time.Since(t0).Seconds())
		s.writeEntry(w, e, "hit")
		return
	}
	m.Count("server.cache.misses", 1)

	// Per-request deadline: the request's own budget, capped by the
	// server-wide limit, layered on the connection context so a client
	// hangup cancels the run too.
	deadline := s.opts.MaxTimeout
	if req.Params.TimeoutMS > 0 {
		if d := time.Duration(req.Params.TimeoutMS) * time.Millisecond; d < deadline {
			deadline = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	var tracer *trace.Tracer
	if req.Params.Trace {
		tracer = trace.New(s.eng.Ranks())
		cfg.Tracer = tracer
	}

	res, err := s.eng.Run(ctx, cfg)
	if tracer != nil {
		var buf bytes.Buffer
		if werr := tracer.WriteTrace(&buf); werr == nil {
			s.traces.put(reqID, buf.Bytes())
			w.Header().Set("X-Trace-Id", reqID)
		}
	}
	if err != nil {
		status, quorum := runStatus(w.Header(), err, cfg.Audit)
		if quorum {
			m.Count("server.quorum_losses", 1)
		}
		s.httpError(w, status, err)
		return
	}
	// A degraded run completed on the surviving ranks: still a success —
	// the mesh is whole (the re-queue path re-ran the dead ranks' tasks)
	// and passed the audit core runs on every degraded run, asked for or
	// not — but flagged so clients can tell, and kept out of the cache so a
	// degraded render is never served as the canonical entry for this key.
	degraded := res.Stats.Degraded()
	if degraded {
		w.Header().Set("X-Degraded", fmt.Sprint(res.Stats.Resilience.RanksLost))
		m.Count("server.degraded", 1)
	}

	var buf bytes.Buffer
	switch req.Params.Format {
	case "binary":
		err = res.Mesh.WriteBinary(&buf)
	case "vtk":
		err = res.Mesh.WriteVTK(&buf, nil)
	default:
		err = res.Mesh.WriteASCII(&buf)
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
		return
	}
	e := &cacheEntry{
		key:         key,
		body:        buf.Bytes(),
		contentType: contentTypeFor(req.Params.Format),
		triangles:   res.Stats.TotalTriangles,
		points:      res.Mesh.NumPoints(),
	}
	if !degraded {
		s.cache.put(e)
	}
	m.Observe("server.request.seconds", time.Since(t0).Seconds())
	s.writeEntry(w, e, "miss")
}

// runStatus maps an engine-run failure to its HTTP status, setting any
// retry hint on hdr. quorum reports a quorum loss — a rank death the run
// could not survive (the root rank died, or the fabric collapsed under
// this process). That condition is transient from the client's view —
// an operator restarting the worker pool restores service — so it maps
// to 503 with a retry hint, not a 500. A worker-rank death never reaches
// this path: the run completes degraded on the survivors and responds
// 200 with an X-Degraded header.
func runStatus(hdr http.Header, err error, audit bool) (status int, quorum bool) {
	status = http.StatusInternalServerError
	var rde *mpi.RankDeadError
	var pe *core.PhaseError
	var empty *core.EmptyBoundaryLayerError
	switch {
	case errors.Is(err, core.ErrEngineBusy):
		status = http.StatusServiceUnavailable
		hdr.Set("Retry-After", "1")
	case errors.Is(err, core.ErrEngineClosed):
		status = http.StatusServiceUnavailable
	case errors.As(err, &rde):
		status = http.StatusServiceUnavailable
		hdr.Set("Retry-After", "5")
		quorum = true
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request
	case audit && errors.As(err, &pe) && pe.Stage == core.StageAudit:
		status = http.StatusUnprocessableEntity
	case errors.As(err, &empty):
		status = http.StatusBadRequest // the request's parameters, found out mid-run
	}
	return status, quorum
}

func (s *server) writeEntry(w http.ResponseWriter, e *cacheEntry, cache string) {
	s.eng.Metrics().Count("server.status.200", 1)
	h := w.Header()
	h.Set("Content-Type", e.contentType)
	h.Set("X-Cache", cache)
	h.Set("X-Mesh-Points", fmt.Sprint(e.points))
	h.Set("X-Mesh-Triangles", fmt.Sprint(e.triangles))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.body)
}

// handleMetrics exports the engine registry. The default is Prometheus
// text exposition (0.0.4) for scrapers; the original JSON document stays
// reachable via `Accept: application/json` or ?format=json.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.eng.Metrics()
	m.Gauge("server.engine.active", float64(s.eng.Active()))
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	var err error
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		err = m.WriteMetrics(w)
	} else {
		w.Header().Set("Content-Type", trace.PromContentType)
		err = m.WritePrometheus(w)
	}
	if err != nil {
		s.httpError(w, http.StatusInternalServerError, err)
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": "ok",
		"ranks":  s.eng.Ranks(),
		"active": s.eng.Active(),
	})
}

// handleReadyz distinguishes "alive" from "accepting work": it flips to
// 503 when shutdown starts (setReady(false)) so orchestrators stop
// routing to a draining instance, while /healthz keeps answering 200
// until the process exits.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	_ = json.NewEncoder(w).Encode(map[string]any{
		"status": "ready",
		"active": s.eng.Active(),
	})
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/trace/")
	data, ok := s.traces.get(id)
	if !ok {
		s.httpError(w, http.StatusNotFound, fmt.Errorf("no trace for request %q (ring keeps the last %d traced requests)", id, s.traces.max))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}
