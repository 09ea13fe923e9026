// Command scaling reproduces Figures 11 and 12: the strong-scaling
// speedup and efficiency of the parallel mesh generator for a fixed mesh
// size. It first runs the real pipeline once to measure every subdomain
// task's cost on this machine (the calibration), then replays the
// schedule through the discrete-event performance model at each rank
// count, printing the speedup (Figure 11) and efficiency (Figure 12)
// series.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
	"pamg2d/internal/perfmodel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("scaling: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run executes the scaling study with explicit streams for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("scaling", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		nHalf    = fs.Int("n", 64, "surface resolution")
		subPer   = fs.Int("sub", 1024, "decoupled subdomains at calibration")
		maxRanks = fs.Int("max-ranks", 256, "largest simulated rank count")
		h0       = fs.Float64("h0", 0.008, "surface edge length (smaller = bigger mesh)")
		hmax     = fs.Float64("hmax", 0.16, "far-field edge length cap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, *nHalf, 20)
	cfg.BL.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.25}
	cfg.BL.MaxLayers = 25
	cfg.SurfaceH0 = *h0
	cfg.HMax = *hmax
	cfg.NearBodyMargin = 0.08
	cfg.Ranks = 1 // calibration on one rank: clean per-task times
	cfg.SubdomainsPerRank = *subPer
	cfg.TransitionSectors = 32

	fmt.Fprintln(stdout, "calibration run (measuring per-subdomain costs)...")
	res, err := core.Generate(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fixed mesh size: %d triangles across %d tasks\n\n",
		res.Stats.TotalTriangles, len(res.Stats.Tasks))

	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{
			Cost:          tm.Seconds,
			Bytes:         tm.Bytes,
			BoundaryLayer: tm.BoundaryLayer,
		})
	}
	// The sequential fraction: PSLG validation, the decomposition tree,
	// and a slice of the final merge.
	seq := res.Stats.StageWall(core.StageValidate).Seconds() +
		perfmodel.DecompositionOverhead(res.Stats.BoundaryLayerPts, *maxRanks, 2e-8, perfmodel.FDRInfiniband()) +
		0.05*res.Stats.StageWall(core.StageMerge).Seconds()

	var counts []int
	for p := 1; p <= *maxRanks; p *= 2 {
		counts = append(counts, p)
	}
	points := perfmodel.StrongScaling(tasks, seq, perfmodel.FDRInfiniband(), counts)

	fmt.Fprintln(stdout, "Figure 11/12: strong scalability (fixed mesh size)")
	fmt.Fprint(stdout, perfmodel.FormatTable(points))

	for _, p := range points {
		if p.Ranks == 128 || p.Ranks == 256 {
			fmt.Fprintf(stdout, "paper reference at %3d ranks: speedup ~%d, efficiency ~%d%%\n",
				p.Ranks, map[int]int{128: 102, 256: 180}[p.Ranks],
				map[int]int{128: 80, 256: 70}[p.Ranks])
		}
	}
	return nil
}
