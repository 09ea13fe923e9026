// Multielement: mesh the synthetic three-element high-lift configuration
// (the 30p30n stand-in) and report every intersection-resolution feature
// of the paper's Figure 13: large-angle surface refinement, cusp fans,
// resolved self-intersections at the cove's concave corners, and resolved
// multi-element intersections in the slat/main and main/flap gaps.
package main

import (
	"fmt"
	"log"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/growth"
)

func main() {
	log.SetFlags(0)

	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.ThreeElement(72)
	cfg.Geometry.FarfieldChords = 20
	cfg.BL = blayer.Params{
		Growth:         growth.Geometric{H0: 3e-4, Ratio: 1.25},
		MaxLayers:      30,
		MaxAngleDeg:    20,
		CuspAngleDeg:   60,
		FanSpacingDeg:  15,
		FanCurving:     0.5,
		IsotropyFactor: 1.0,
		TrimFactor:     1.0,
	}
	cfg.SurfaceH0 = 0.025
	cfg.Gradation = 0.2
	cfg.HMax = 3
	cfg.Ranks = 8

	res, err := core.Generate(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("three-element high-lift configuration (30p30n stand-in)")
	fmt.Printf("  triangles %d (BL %d, transition %d, inviscid %d)\n",
		res.Stats.TotalTriangles, res.Stats.BLTriangles,
		res.Stats.TransitionTris, res.Stats.InviscidTris)

	names := []string{"slat", "main", "flap"}
	fmt.Println("\n  Figure 13 feature inventory per element:")
	fmt.Printf("  %-6s %9s %9s %6s %6s %6s %8s\n",
		"elem", "origVerts", "inserted", "fans", "self", "multi", "trimmed")
	for i, st := range res.Stats.BLLayerStats {
		fmt.Printf("  %-6s %9d %9d %6d %6d %6d %8d\n",
			names[i], st.OriginalVertices, st.InsertedVertices,
			st.FanRays, st.SelfIntersections, st.MultiIntersections, st.TrimmedRays)
	}

	q := res.Mesh.Quality()
	fmt.Printf("\n  anisotropy (max aspect ratio): %.0f:1\n", q.MaxAspectRatio)
	fmt.Println("  load balance (tasks per rank, by distributed stage):")
	for _, s := range res.Stats.Stages {
		if len(s.Ranks) == 0 {
			continue
		}
		fmt.Printf("    %-17s", s.Name)
		for _, r := range s.Ranks {
			fmt.Printf(" r%d:%d", r.Rank, r.Tasks)
		}
		fmt.Println()
	}
}
