// Command meshd is the long-running mesh-generation service: an HTTP/JSON
// front end over one shared core.Engine, serving concurrent pipeline runs
// from a persistent rank fabric with admission control, per-request
// deadlines, geometry-keyed result caching, and /metrics + /trace/{id}
// observability.
//
// Quickstart:
//
//	meshd -listen 127.0.0.1:8080 -ranks 4 -concurrency 4 &
//	curl -s -X POST http://127.0.0.1:8080/mesh \
//	     -d '{"geometry":"naca0012","n":48,"params":{"audit":true}}' > out.mesh
//	curl -s http://127.0.0.1:8080/metrics | head
//
// Endpoints:
//
//	POST /mesh          geometry (named airfoil or inline .poly) + params → mesh
//	GET  /metrics       engine-lifetime run/latency/cache counters
//	                    (Prometheus text by default; JSON via Accept or ?format=json)
//	GET  /healthz       liveness + active-run count
//	GET  /readyz        readiness (503 while draining on shutdown)
//	GET  /trace/{id}    Chrome trace export of a request sent with "trace":true
//	GET  /debug/pprof/  runtime profiles (only with -pprof)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pamg2d/internal/core"
)

// Read limits of the listener: a client gets readHeaderTimeout to finish
// its request headers and readTimeout to finish the whole request, body
// included, so a connection that trickles bytes cannot hold a handler.
// There is no write timeout: a response may take a whole run, which the
// per-request deadline (-max-timeout) already bounds.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "meshd: %v\n", err)
		os.Exit(1)
	}
}

// newLogger builds the service's structured logger, or nil (all logging
// disabled) for level "off".
func newLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	if level == "" || level == "off" {
		return nil, nil
	}
	var lv slog.Level
	switch level {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q", format)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meshd", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
		ranks       = fs.Int("ranks", 4, "engine rank count (in-process goroutine ranks)")
		concurrency = fs.Int("concurrency", 4, "maximum runs executing at once (0 = unlimited)")
		queue       = fs.Int("queue", 8, "runs allowed to wait when saturated before 503 (-1 = none, 0 = unbounded)")
		cacheSize   = fs.Int("cache", 64, "result-cache capacity in rendered meshes (-1 disables)")
		maxTimeout  = fs.Duration("max-timeout", 2*time.Minute, "cap on any request's generation deadline")
		logFormat   = fs.String("log-format", "text", "structured log format: text | json")
		logLevel    = fs.String("log-level", "info", "log level: off | debug | info | warn | error")
		enablePprof = fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (exposes runtime internals; opt-in)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger, err := newLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	eng, err := core.NewEngine(core.EngineConfig{
		Ranks:         *ranks,
		MaxConcurrent: *concurrency,
		MaxQueue:      *queue,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	defer eng.Close()

	srv := newServer(eng, serverOptions{
		MaxTimeout:  *maxTimeout,
		CacheSize:   *cacheSize,
		Logger:      logger,
		EnablePprof: *enablePprof,
	})
	hs := &http.Server{
		Addr:              *listen,
		Handler:           srv,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	if logger != nil {
		logger.Info("serving", "listen", *listen, "ranks", eng.Ranks(),
			"concurrency", *concurrency, "pprof", *enablePprof)
	} else {
		fmt.Fprintf(os.Stderr, "meshd: serving on %s (%d ranks, concurrency %d)\n", *listen, eng.Ranks(), *concurrency)
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Flip readiness before closing the listener so orchestrators stop
	// routing new work while in-flight requests drain.
	srv.setReady(false)
	if logger != nil {
		logger.Info("shutting down", "active", eng.Active())
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
