// Scalingstudy: the Figure 11/12 experiment as a library example. A
// calibration run of the real pipeline measures per-subdomain costs; the
// discrete-event performance model then replays the schedule at rank
// counts up to 256 and prints the speedup and efficiency curves next to
// the paper's reference points.
package main

import (
	"fmt"
	"log"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
	"pamg2d/internal/perfmodel"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, 64, 20)
	cfg.BL.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.25}
	cfg.BL.MaxLayers = 25
	cfg.SurfaceH0 = 0.008
	cfg.HMax = 0.16
	cfg.NearBodyMargin = 0.04
	cfg.Ranks = 1                // calibration on one rank: clean per-task times on one core
	cfg.SubdomainsPerRank = 2048 // over-decompose so 256 ranks have work

	fmt.Println("calibration: running the pipeline once to time every subdomain task")
	res, err := core.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fixed mesh: %d triangles in %d tasks\n\n", res.Stats.TotalTriangles, len(res.Stats.Tasks))

	var tasks []perfmodel.Task
	for _, tm := range res.Stats.Tasks {
		tasks = append(tasks, perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer})
	}
	seq := res.Stats.StageWall(core.StageValidate).Seconds() +
		perfmodel.DecompositionOverhead(res.Stats.BoundaryLayerPts, 256, 2e-8, perfmodel.FDRInfiniband())

	pts := perfmodel.StrongScaling(tasks, seq, perfmodel.FDRInfiniband(),
		[]int{1, 2, 4, 8, 16, 32, 64, 128, 256})
	fmt.Println("strong scaling (Figures 11 and 12):")
	fmt.Print(perfmodel.FormatTable(pts))
	fmt.Println("\npaper reference: speedup ~102 at 128 ranks (80% efficiency),")
	fmt.Println("                 speedup ~180 at 256 ranks (70% efficiency)")
}
