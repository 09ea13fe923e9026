// Package benchcfg holds the scaled-down configurations of EXPERIMENTS.md's
// harness (the per-figure and ablation benchmarks of bench_test.go) and the
// adaptation metric bench/'s adapt-bl workload shares with it. The
// performance record is bench/ and the BENCH_<date>.json trajectory files,
// not these benchmarks.
package benchcfg

import (
	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/project"
)

// PushButton returns the shared scaled-down pipeline configuration of the
// full-pipeline benchmarks and TestAuditedWorkloads: NACA 0012, moderately
// fine boundary layer, rank-2 pipeline.
func PushButton() core.Config {
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, 48, 10)
	cfg.BL = blayer.Params{
		Growth:         growth.Geometric{H0: 1e-3, Ratio: 1.3},
		MaxLayers:      15,
		MaxAngleDeg:    20,
		CuspAngleDeg:   60,
		FanSpacingDeg:  15,
		FanCurving:     0.5,
		IsotropyFactor: 1.0,
		TrimFactor:     1.0,
	}
	cfg.SurfaceH0 = 0.04
	cfg.Gradation = 0.25
	cfg.HMax = 2
	cfg.Ranks = 2
	return cfg
}

// Fig08Points builds the boundary-layer point set that the Figure 8
// benchmark decomposes into independent Delaunay subdomains.
func Fig08Points() ([]geom.Point, error) {
	cfg := airfoil.Single(airfoil.NACA0012, 256, 30)
	g, err := cfg.Graph()
	if err != nil {
		return nil, err
	}
	layers := blayer.Generate(g, blayer.DefaultParams())
	return layers[0].AllPoints(), nil
}

// Fig08Options returns the decomposition options of the Figure 8 benchmark
// (depth 7 yields up to 128 subdomains).
func Fig08Options() project.Options {
	return project.Options{MinVerts: 2, MaxDepth: 7}
}

// AdaptMetric is the analytic boundary-layer metric spec bench/'s adapt-bl
// workload drives its mesh toward: a stretch field off the chord with 0.02
// normal spacing at the wall relaxing to isotropic 0.3.
const AdaptMetric = "bl:x0=0,y0=0,x1=1,y1=0,hn=0.02,ht=0.3,grow=0.6"
