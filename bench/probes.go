package main

import (
	"context"
	"fmt"
	"time"

	"pamg2d/internal/geom"
	"pamg2d/internal/loadbal"
	"pamg2d/internal/mpi"
	"pamg2d/internal/trace"
)

// microProbes time the layers whose cost does not depend on the workload
// (predicates, tracer, balancer and fabric overheads), each on its own
// exported functions and under its own span. They run in every traced
// pass so a change to one of these layers shows beside every workload's
// own numbers.
func microProbes(rc *runCtx, rec *recorder, parent int, col *collector) {
	const run = "probe"
	scale := 1
	if rc.quick {
		scale = 20
	}
	perCall := func(layer, name, metric string, n int, unit time.Duration, fn func(n int)) {
		n /= scale
		d := rec.in(parent, run, layer, name, func() { fn(n) })
		col.set(metric, float64(d)/float64(unit)/float64(n))
	}

	// geom: the filtered fast path on well-separated points, the exact
	// expansion path on points that differ in their last bits.
	var sink float64
	a, b := geom.Pt(0.5, 0.5), geom.Pt(12, 12)
	perCall("geom", "Orient2D/fast", "geom.orient2d_fast_ns", 2_000_000, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += geom.Orient2D(a, b, geom.Pt(3+float64(i&7), 17))
		}
	})
	perCall("geom", "Orient2D/exact", "geom.orient2d_exact_ns", 200_000, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += geom.Orient2D(a, b, geom.Pt(24+float64(i&7)*0x1p-48, 24))
		}
	})
	c, d := geom.Pt(1, 0), geom.Pt(0, 1)
	o := geom.Pt(0, 0)
	perCall("geom", "InCircle/fast", "geom.incircle_fast_ns", 2_000_000, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += geom.InCircle(o, c, d, geom.Pt(3+float64(i&7), 5))
		}
	})
	perCall("geom", "InCircle/exact", "geom.incircle_exact_ns", 100_000, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			sink += geom.InCircle(o, c, d, geom.Pt(1+float64(i&7)*0x1p-52, 1))
		}
	})

	// trace: one Begin+End on a live tracer.
	tr := trace.New(1)
	perCall("trace", "Begin+End", "trace.span_ns", 200_000, time.Nanosecond, func(n int) {
		for i := 0; i < n; i++ {
			tr.Begin(0, trace.CatTask, "probe").End()
		}
	})
	spinSink.Add(uint64(int64(sink)))

	// loadbal: no-op tasks through the balancer on a 2-rank world.
	const tasks = 2000
	id := rec.begin(parent, run, "loadbal", "Run/no-op")
	err := balancerNoop(tasks / scale)
	dur := rec.end(id, map[string]float64{"tasks": float64(tasks / scale)})
	if err == nil {
		col.set("loadbal.task_overhead_us", float64(dur.Microseconds())/float64(tasks/scale))
	}

	// mpi: round trips and throughput, in-process and over loopback TCP.
	rounds := 200 / scale
	id = rec.begin(parent, run, "mpi", "pingpong/inproc")
	world := mpi.NewWorld(2)
	if d, err := pingpong([]*mpi.World{world, world}, 64<<10, rounds); err == nil {
		col.set("mpi.pingpong_inproc_us", float64(d.Microseconds())/float64(rounds))
	}
	rec.end(id, nil)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	id = rec.begin(parent, run, "mpi", "LoopbackClusters")
	clusters, err := mpi.LoopbackClusters(ctx, 2)
	up := rec.end(id, nil)
	if err != nil {
		rc.logf("probe: loopback cluster: %v", err)
		return
	}
	defer func() {
		for _, cl := range clusters {
			cl.Close()
		}
	}()
	col.add("mpi.cluster_up_s", up.Seconds())
	id = rec.begin(parent, run, "mpi", "pingpong/tcp")
	if d, err := pingpong([]*mpi.World{clusters[0].NewWorld(), clusters[1].NewWorld()}, 64<<10, rounds); err == nil {
		col.set("mpi.pingpong_tcp_us", float64(d.Microseconds())/float64(rounds))
	}
	rec.end(id, nil)
	// Throughput: 1 MiB payloads, counted one way (each round trip moves
	// the payload twice).
	big := 40 / scale
	id = rec.begin(parent, run, "mpi", "throughput/tcp")
	if d, err := pingpong([]*mpi.World{clusters[0].NewWorld(), clusters[1].NewWorld()}, 1<<20, big); err == nil {
		col.set("mpi.tcp_mb_per_s", 2*float64(big)*float64(1<<20)/1e6/d.Seconds())
	}
	rec.end(id, nil)
}

// pingpong bounces one payload between rank 0 and rank 1 and returns the
// wall of all rounds. worlds[r] hosts rank r: the same world twice for
// the in-process fabric, one world per cluster handle over TCP.
func pingpong(worlds []*mpi.World, size, rounds int) (time.Duration, error) {
	const tag = 900
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body := func(c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			for i := 0; i < rounds; i++ {
				if err := c.Send(1, tag, mpi.GetBytes(size)); err != nil {
					return err
				}
				buf, _, _, err := c.Recv(ctx, 1, tag)
				if err != nil {
					return err
				}
				mpi.PutBytes(buf)
			}
		case 1:
			for i := 0; i < rounds; i++ {
				buf, _, _, err := c.Recv(ctx, 0, tag)
				if err != nil {
					return err
				}
				if err := c.Send(0, tag, buf); err != nil {
					return err
				}
			}
		}
		return nil
	}
	t0 := time.Now()
	var err error
	if worlds[0] == worlds[1] {
		err = worlds[0].RunCtx(ctx, body)
	} else {
		errs := make(chan error, len(worlds))
		for _, w := range worlds {
			go func(w *mpi.World) { errs <- w.RunCtx(ctx, body) }(w)
		}
		for range worlds {
			if e := <-errs; e != nil && err == nil {
				err = e
			}
		}
	}
	if err != nil {
		return 0, fmt.Errorf("pingpong: %w", err)
	}
	return time.Since(t0), nil
}

// balancerNoop pushes n empty tasks through loadbal.Run on a 2-rank
// in-process world, dealt round-robin as the pipeline deals them.
func balancerNoop(n int) error {
	const ranks = 2
	world := mpi.NewWorld(ranks)
	win := world.NewWindow(ranks)
	initial := make([][]loadbal.Task, ranks)
	for i := 0; i < n; i++ {
		initial[i%ranks] = append(initial[i%ranks], loadbal.Task{ID: int32(i), Cost: 1})
	}
	opt := loadbal.DefaultOptions(float64(n), ranks)
	ctx := context.Background()
	return world.RunCtx(ctx, func(c *mpi.Comm) error {
		_, err := loadbal.Run(ctx, c, win, initial[c.Rank()], n, opt, func(loadbal.Task) {})
		return err
	})
}
