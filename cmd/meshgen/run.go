package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/cli"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
	"pamg2d/internal/mesh"
	"pamg2d/internal/mpi"
	"pamg2d/internal/pslg"
	"pamg2d/internal/trace"
)

// run executes the meshgen CLI with explicit argument and output streams
// so the command is testable end to end. ctx bounds the whole run: main
// cancels it on SIGINT/SIGTERM, and -timeout adds a deadline on top.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	// A non-File stderr (test harnesses pass a bytes.Buffer) must be
	// serialized before it is shared with spawned worker processes:
	// os/exec copies a child's stderr pipe into a non-File writer with
	// io.Copy, which delegates to bytes.Buffer.ReadFrom — and ReadFrom
	// snapshots the buffer length, blocks for the child's lifetime, then
	// truncates the buffer back to the snapshot on EOF, erasing whatever
	// the launcher printed in between. The wrapper hides ReadFrom and
	// locks each write. A real *os.File (os.Stderr in production) is
	// passed to children as a plain fd, needs neither, and stays unwrapped.
	if _, isFile := stderr.(*os.File); !isFile {
		stderr = &lockedWriter{w: stderr}
	}
	fs := flag.NewFlagSet("meshgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The run's flags take their defaults from core.DefaultConfig().
	def := core.DefaultConfig()
	defGrowth := def.BL.Growth.(growth.Geometric)
	var (
		geometry    = fs.String("geometry", "naca0012", "geometry: naca0012 | 30p30n (ignored with -input)")
		input       = fs.String("input", "", "read the PSLG from a Triangle .poly file instead of -geometry")
		writePoly   = fs.String("write-poly", "", "also write the generated PSLG to this .poly file")
		nHalf       = fs.Int("n", def.Geometry.Elements[0].NHalf, "surface resolution (half-points per element)")
		ranks       = fs.Int("ranks", def.Ranks, "MPI ranks (goroutines with -transport inproc, processes with tcp)")
		transport   = fs.String("transport", "inproc", "rank transport: inproc | tcp (spawns ranks-1 worker processes)")
		listen      = fs.String("listen", "127.0.0.1:0", "launcher listen address for -transport tcp")
		spawn       = fs.Int("spawn", -1, "worker processes the launcher forks locally (-1 = ranks-1; 0 = all workers join by hand)")
		worker      = fs.Bool("worker", false, "run as a spawned worker process (internal; requires -join)")
		join        = fs.String("join", "", "address of the launcher to join as a worker")
		farfield    = fs.Float64("farfield", def.Geometry.FarfieldChords, "far-field half-width in chords")
		h0          = fs.Float64("bl-h0", defGrowth.H0, "first boundary-layer height")
		ratio       = fs.Float64("bl-ratio", defGrowth.Ratio, "boundary-layer growth ratio")
		layersMax   = fs.Int("bl-layers", def.BL.MaxLayers, "maximum boundary layers")
		surfaceH    = fs.Float64("h0", def.SurfaceH0, "isotropic surface edge length")
		gradation   = fs.Float64("gradation", def.Gradation, "sizing growth with distance")
		hmax        = fs.Float64("hmax", def.HMax, "far-field edge length cap")
		auditRun    = fs.Bool("audit", false, "verify mesh invariants after the merge (fails the run on violations)")
		strictRanks = fs.Bool("strict-ranks", false, "fail the run if any rank died (default: a degraded run that completes on the survivors exits 0)")
		faultRank   = fs.Int("fault-kill-rank", -1, "fault injection: this worker rank SIGKILLs itself mid-run (tcp transport; rehearses rank-death recovery)")
		faultTask   = fs.Int("fault-kill-task", 0, "fault injection: the task index at which -fault-kill-rank dies (0 = its first task)")
		format      = fs.String("format", "ascii", "output format: ascii | binary | vtk")
		out         = fs.String("o", "", "output file (default stdout)")
		quiet       = fs.Bool("q", false, "suppress statistics")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile to this file")
		traceOut    = fs.String("trace", "", "write a Chrome trace-event file of the run (load in Perfetto / chrome://tracing)")
		metricsOut  = fs.String("metrics", "", "write the run-metrics registry (counters/gauges/histograms) as JSON")
		timeout     = fs.Duration("timeout", 0, "abort generation after this duration (0 = no limit)")
		logFormat   = fs.String("log-format", "text", "structured log format: text | json")
		logLevel    = fs.String("log-level", "off", "engine log level: off | debug | info | warn | error")
		runID       = fs.String("run-id", "", "run correlation ID stamped on logs and stats (default: engine-assigned when observability is on)")
		adaptN      = fs.Int("adapt-cycles", 0, "metric-adaptation cycles after generation (0 = off)")
		adaptMet    = fs.String("adapt-metric", "hessian", "metric source: hessian | a metric spec (uniform:h=… | bl:…)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The writer is resolved here, with the other flags: an unknown format
	// fails before a mesh is generated or -o is created.
	outFormat, err := mesh.OutputFormat(*format)
	if err != nil {
		return err
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// A worker whose launcher asked for a trace or metrics file records
	// its own rank locally and ships the snapshot to rank 0 at the end of
	// the run; the flag values themselves are cleared below so workers
	// never write launcher-owned artifacts.
	wantTelemetry := *worker && (*traceOut != "" || *metricsOut != "")
	if *worker {
		// Workers run the identical SPMD pipeline but produce no artifacts
		// of their own: the launcher owns the mesh, the stats, and every
		// observability output.
		if *join == "" {
			return fmt.Errorf("-worker requires -join <launcher address>")
		}
		*cpuProf, *memProf, *traceOut, *metricsOut, *writePoly = "", "", "", "", ""
	}
	logger, err := cli.NewLogger(stderr, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			err := cli.WriteFile(*memProf, func(w io.Writer) error {
				runtime.GC() // settle the heap so the profile reflects retained memory
				return pprof.WriteHeapProfile(w)
			})
			if err != nil {
				fmt.Fprintf(stderr, "meshgen: %v\n", err)
			}
		}()
	}

	cfg := def
	if *input != "" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		g, err := pslg.ReadPoly(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.CustomGraph = g
	} else if cfg.Geometry, err = airfoil.ByName(*geometry, *nHalf, *farfield); err != nil {
		return err
	}
	if *writePoly != "" {
		g := cfg.CustomGraph
		if g == nil {
			var err error
			g, err = cfg.Geometry.Graph()
			if err != nil {
				return err
			}
		}
		if err := cli.WriteFile(*writePoly, g.WritePoly); err != nil {
			return err
		}
	}
	cfg.BL.Growth = growth.Geometric{H0: *h0, Ratio: *ratio}
	cfg.BL.MaxLayers = *layersMax
	cfg.SurfaceH0 = *surfaceH
	cfg.Gradation = *gradation
	cfg.HMax = *hmax
	cfg.Ranks = *ranks
	cfg.Audit = *auditRun
	cfg.RunID = *runID
	var fabric *mpi.Cluster
	switch {
	case *worker:
		cluster, err := mpi.JoinTCP(ctx, *join)
		if err != nil {
			return fmt.Errorf("join %s: %w", *join, err)
		}
		defer cluster.Close()
		cfg.Fabric = cluster
		cfg.Ranks = cluster.Size()
		if logger != nil {
			cfg.Logger = logger.With("rank", cluster.Rank())
		}
		armFaultKill(&cfg, cluster.Rank(), *faultRank, *faultTask)
		var workerTracer *trace.Tracer
		if wantTelemetry {
			workerTracer = trace.New(cfg.Ranks)
			cfg.Tracer = workerTracer
			// Pings from the launcher read this clock, so the measured
			// offsets convert worker trace timestamps directly.
			cluster.SetNowFunc(workerTracer.Now)
		}
		poolGets0, poolPuts0 := mpi.PoolCounters()
		res, err := core.GenerateContext(ctx, cfg)
		if err != nil {
			return err
		}
		// Ship the per-process run summary, then any tracer snapshot,
		// before the finalize barrier: FIFO frame delivery means the
		// launcher holds both once the barrier releases.
		if err := cluster.SendTelemetry(encodeRankStats(cluster.Rank(), &res.Stats)); err != nil {
			return err
		}
		if workerTracer != nil {
			foldPoolGauges(workerTracer.Metrics(), poolGets0, poolPuts0)
			if err := cluster.SendTelemetry(workerTracer.Export(cluster.Rank())); err != nil {
				return err
			}
		}
		return finalizeTCP(ctx, cluster)
	case *transport == "tcp":
		// One correlation ID for the whole process tree: assign before the
		// workers fork so they inherit it on their command line.
		if *runID == "" && (logger != nil || *traceOut != "" || *metricsOut != "") {
			*runID = fmt.Sprintf("meshgen-%d", os.Getpid())
			cfg.RunID = *runID
		}
		cluster, reap, err := launchTCP(ctx, args, *listen, *ranks, *spawn, *runID, stderr)
		if err != nil {
			return err
		}
		defer reap()
		defer cluster.Close()
		cfg.Fabric = cluster
		fabric = cluster
		if logger != nil {
			cfg.Logger = logger.With("rank", 0)
		}
	case *transport != "inproc":
		return fmt.Errorf("unknown transport %q", *transport)
	default:
		if logger != nil {
			cfg.Logger = logger
		}
	}

	var tracer *trace.Tracer
	if *traceOut != "" || *metricsOut != "" {
		tracer = trace.New(cfg.Ranks)
		cfg.Tracer = tracer
		if fabric != nil {
			fabric.SetNowFunc(tracer.Now)
		}
	}
	poolGets0, poolPuts0 := mpi.PoolCounters()

	res, err := core.GenerateContext(ctx, cfg)
	var clocks []mpi.ClockSync
	if err == nil && fabric != nil {
		if tracer != nil {
			// Measure before the finalize barrier: workers answer pings on
			// their reader goroutines even while blocked in the barrier, and
			// their tracer clocks are still the installed now-funcs.
			if clocks, err = fabric.MeasureOffsets(ctx, 5); err != nil {
				err = fmt.Errorf("clock sync: %w", err)
			}
		}
		if err == nil {
			err = finalizeTCP(ctx, fabric)
		}
	}
	// Drain the telemetry channel once the barrier released: worker
	// processes shipped their run summaries (and tracer snapshots, when
	// tracing is on) ahead of entering it. Ranks that died have no
	// summary — the degradation report below covers them.
	var workerStats []rankSummary
	var workerTelems []*trace.Telemetry
	if fabric != nil {
		workerStats, workerTelems = drainTelemetry(fabric)
	}
	if err == nil && fabric != nil && res.Stats.Degraded() {
		reportDeaths(stderr, &res.Stats)
		if *strictRanks {
			// The trace still exports below: the degraded run's record is
			// exactly what the strict failure will be debugged with.
			err = fmt.Errorf("%d rank(s) died during the run (-strict-ranks)", res.Stats.Resilience.RanksLost)
		}
	}

	// Adaptation runs before the export so that its spans and counters
	// are in the artifacts; like a generation error, its error still
	// leaves the partial record written.
	var adapted *mesh.Mesh
	if err == nil && *adaptN > 0 {
		if fabric != nil {
			err = fmt.Errorf("-adapt-cycles requires -transport inproc")
		} else {
			adapted, err = runAdapt(res.Mesh, *adaptN, *adaptMet, cfg.Ranks, tracer, stderr, *quiet)
		}
	}

	// Export the trace and metrics even when generation or adaptation
	// failed: the partial record of an aborted run is usually the record
	// being debugged. That error still wins the exit status.
	var telems []*trace.Telemetry
	if tracer != nil {
		foldPoolGauges(tracer.Metrics(), poolGets0, poolPuts0)
		var rankClocks []trace.RankClock
		transport := ""
		if fabric != nil {
			transport = fabric.TransportName()
			for _, tel := range workerTelems {
				telems = append(telems, tel)
				// Worker registries land under a rank prefix so per-rank
				// totals stay distinguishable in the merged document.
				tracer.Metrics().MergeSnapshot(fmt.Sprintf("rank%d.", tel.Rank), tel.Metrics)
			}
			for _, cs := range clocks {
				rankClocks = append(rankClocks, trace.RankClock{
					Rank: cs.Rank, OffsetNS: cs.OffsetNS, RTTNS: cs.RTTNS,
				})
			}
		}
		// The local snapshot is exported after the metric folds above so
		// the metrics file carries every rank; it sorts to the front of the
		// merged trace by host rank.
		telems = append(telems, tracer.Export(0))
		if werr := cli.WriteObservability(tracer, *traceOut, *metricsOut, telems, rankClocks, transport); werr != nil {
			if err == nil {
				err = werr
			} else {
				fmt.Fprintf(stderr, "meshgen: %v\n", werr)
			}
		}
	}
	if err != nil {
		return err
	}

	final := res.Mesh // the mesh written: the generated one, or its adaptation
	if adapted != nil {
		final = adapted
	}
	emit := func(w io.Writer) error { return outFormat.Write(final, w) }
	if *out == "" {
		err = emit(stdout)
	} else {
		err = cli.WriteFile(*out, emit)
	}
	if err != nil {
		return err
	}

	if !*quiet {
		st := res.Stats
		q := final.Quality()
		fmt.Fprintf(stderr, "points               %d\n", res.Mesh.NumPoints())
		fmt.Fprintf(stderr, "triangles            %d (BL %d, transition %d, inviscid %d)\n",
			res.Mesh.NumTriangles(), st.BLTriangles, st.TransitionTris, st.InviscidTris)
		if adapted != nil {
			fmt.Fprintf(stderr, "adapted              %d points, %d triangles\n", adapted.NumPoints(), adapted.NumTriangles())
		}
		fmt.Fprintf(stderr, "boundary-layer pts   %d from %d surface points\n",
			st.BoundaryLayerPts, st.SurfacePoints)
		fmt.Fprintf(stderr, "max aspect ratio     %.1f\n", q.MaxAspectRatio)
		fmt.Fprintf(stderr, "tasks                %d across %d ranks (%d msgs, %d bytes)\n",
			len(st.Tasks), cfg.Ranks, st.Messages, st.BytesOnWire)
		fmt.Fprintf(stderr, "time                 total %v, serial %v", st.Times.Total.Round(1e6), st.SerialTime().Round(1e6))
		for _, s := range st.Stages {
			if !strings.Contains(s.Name, "/") { // summary entries; audit/<check> sub-entries are inside "audit"
				fmt.Fprintf(stderr, ", %s %v", s.Name, s.Wall.Round(1e6))
			}
		}
		fmt.Fprintln(stderr)
		if st.Steals.Requests > 0 || st.Steals.Gotten > 0 {
			fmt.Fprintf(stderr, "steals               %d of %d requests granted, %v total idle\n",
				st.Steals.Granted, st.Steals.Requests, st.Steals.Idle.Round(1e6))
		}
		if fabric != nil {
			printRankStats(stderr, summarizeRankStats(0, &st), workerStats)
		}
		if st.Degraded() {
			printResilience(stderr, &st)
		}
		if tracer != nil && fabric != nil {
			var maxOff int64
			for _, cs := range clocks {
				if off := cs.OffsetNS; off < 0 {
					off = -off
					if off > maxOff {
						maxOff = off
					}
				} else if off > maxOff {
					maxOff = off
				}
			}
			fmt.Fprintf(stderr, "telemetry            %d rank snapshots merged, max |clock offset| %dns\n",
				len(telems), maxOff)
		}
		if st.Audit != nil {
			checked := 0
			for _, c := range st.Audit.Checks {
				if !c.Skipped {
					checked++
				}
			}
			fmt.Fprintf(stderr, "audit                %d checks passed in %v\n",
				checked, st.StageWall(core.StageAudit).Round(1e6))
		}
	}
	return nil
}

// armFaultKill installs the fault-injection hook on the worker whose
// rank matches -fault-kill-rank: at the start of its killTask-th task it
// raises SIGKILL on itself — uncatchable and instant, exactly the death
// an OOM kill or a node loss delivers — so resilience tests and the CI
// fault smoke get a rank death at a deterministic point in the task
// stream instead of a racy external kill. Workers only: the launcher is
// rank 0, and killing it is quorum loss by definition.
func armFaultKill(cfg *core.Config, rank, killRank, killTask int) {
	if killRank < 0 || rank != killRank {
		return
	}
	var tasks atomic.Int64
	cfg.TaskHook = func(stage string, kind int) error {
		if int(tasks.Add(1)) > killTask {
			_ = syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
		}
		return nil
	}
}

// drainTelemetry collects what the worker processes shipped to this one:
// run summaries and tracer snapshots. A summary arrives in a pooled
// buffer, released once decoded.
func drainTelemetry(fabric *mpi.Cluster) (stats []rankSummary, telems []*trace.Telemetry) {
	for _, item := range fabric.Telemetry() {
		switch p := item.Payload.(type) {
		case *trace.Telemetry:
			telems = append(telems, p)
		case []byte:
			if rs, ok := decodeRankStats(p); ok {
				stats = append(stats, rs)
			}
			mpi.PutBytes(p)
		}
	}
	return stats, telems
}

// finalizeTCP synchronizes pipeline completion across the fabric's
// processes before any of them tears its connections down: without the
// barrier the launcher could close the cluster while a worker is still
// draining the last result broadcast, failing the worker with a link EOF.
// A process that errored out of generation skips the barrier and closes
// its cluster instead, which releases the others with ErrWorldClosed
// rather than hanging them. Only the barrier's own result matters: once
// it releases, every process has finished, and a world teardown caused by
// a peer closing immediately afterwards is the expected shutdown, not an
// error (RunCtx would otherwise report that race as the run's failure).
func finalizeTCP(ctx context.Context, cluster *mpi.Cluster) error {
	w := cluster.NewWorld()
	var berr error
	_ = w.RunCtx(ctx, func(c *mpi.Comm) error { berr = c.Barrier(); return nil })
	return berr
}

// foldPoolGauges records the process's mpi buffer-pool traffic since the
// recorded baseline into the registry, on the launcher and every worker
// alike.
func foldPoolGauges(m *trace.Metrics, gets0, puts0 int64) {
	g, p := mpi.PoolCounters()
	m.Gauge("mpi.pool.gets", float64(g-gets0))
	m.Gauge("mpi.pool.puts", float64(p-puts0))
	if g > gets0 {
		m.Gauge("mpi.pool.recycle_rate", float64(p-puts0)/float64(g-gets0))
	}
}
