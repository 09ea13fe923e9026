package main

// The paper's evaluation studies, each computed once into eval.json: the
// strong scaling of Figures 11 and 12 and the model-problem convergence of
// Figures 14–16.

import (
	"fmt"
	"io"
	"runtime/debug"

	"pamg2d/internal/airfoil"
	"pamg2d/internal/blayer"
	"pamg2d/internal/core"
	"pamg2d/internal/geom"
	"pamg2d/internal/growth"
	"pamg2d/internal/mesh"
	"pamg2d/internal/perfmodel"
	"pamg2d/internal/sizing"
	"pamg2d/internal/solver"
)

// evalRecord is eval.json: the study results with the host and commit
// that produced them.
type evalRecord struct {
	Scaling     *scalingResult     `json:"scaling"`
	Convergence *convergenceResult `json:"convergence"`
	Host        hostRecord         `json:"host"`
	Revision    string             `json:"revision"` // vcs.revision of the build, "+dirty" when modified
}

type hostRecord struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// revision reads the commit the binary was built from; empty when the
// build carries no version-control stamp.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, dirty string
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// scalingSetup sizes the Figures 11/12 calibration run and the largest
// simulated rank count.
type scalingSetup struct {
	N, SubdomainsPerRank, MaxRanks int
	H0, HMax                       float64
}

// paperScaling is the recorded study: a fixed mesh of 267k triangles in
// 1,320 tasks, replayed on 1 to 256 ranks.
var paperScaling = scalingSetup{N: 64, SubdomainsPerRank: 1024, MaxRanks: 256, H0: 0.008, HMax: 0.16}

type scalingResult struct {
	Triangles int                    `json:"triangles"`
	Tasks     int                    `json:"tasks"`
	TaskS     float64                `json:"task_s"`   // summed task seconds of the calibration run
	SerialS   float64                `json:"serial_s"` // its Stats.SerialTime: the model's sequential fraction
	Points    []perfmodel.ScalePoint `json:"points"`
}

// scalingStudy runs the pipeline once on one rank to measure every task's
// cost and the root-side time, then replays the tasks through the
// scheduling model at each power of two up to s.MaxRanks.
func scalingStudy(s scalingSetup, w io.Writer) (*scalingResult, error) {
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, s.N, 20)
	cfg.BL.Growth = growth.Geometric{H0: 5e-4, Ratio: 1.25}
	cfg.BL.MaxLayers = 25
	cfg.SurfaceH0 = s.H0
	cfg.HMax = s.HMax
	cfg.NearBodyMargin = 0.08
	cfg.Ranks = 1 // calibration on one rank: clean per-task times
	cfg.SubdomainsPerRank = s.SubdomainsPerRank
	cfg.TransitionSectors = 32
	res, err := core.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("scaling calibration run: %w", err)
	}
	st := &res.Stats
	r := &scalingResult{Triangles: st.TotalTriangles, Tasks: len(st.Tasks), SerialS: st.SerialTime().Seconds()}
	tasks := make([]perfmodel.Task, len(st.Tasks))
	for i, tm := range st.Tasks {
		tasks[i] = perfmodel.Task{Cost: tm.Seconds, Bytes: tm.Bytes, BoundaryLayer: tm.BoundaryLayer}
		r.TaskS += tm.Seconds
	}
	var counts []int
	for p := 1; p <= s.MaxRanks; p *= 2 {
		counts = append(counts, p)
	}
	r.Points = perfmodel.StrongScaling(tasks, r.SerialS, perfmodel.FDRInfiniband(), counts)

	fmt.Fprintf(w, "Figures 11/12: %d triangles in %d tasks, %.3f s of tasks, %.3f s serial\n",
		r.Triangles, r.Tasks, r.TaskS, r.SerialS)
	fmt.Fprint(w, perfmodel.FormatTable(r.Points))
	fmt.Fprintln(w, "paper: speedup ~102 / ~180, efficiency ~80% / ~70% at 128 / 256 ranks")
	return r, nil
}

// convergenceSetup sizes the Figures 14–16 meshes and the solver tolerance.
type convergenceSetup struct {
	N, Layers            int
	BLH0, IsoFactor, Tol float64
}

// paperConvergence is the recorded study.
var paperConvergence = convergenceSetup{N: 48, Layers: 18, BLH0: 1e-3, IsoFactor: 1, Tol: 1e-10}

type solveResult struct {
	Triangles  int       `json:"triangles"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Min        float64   `json:"min"`
	Max        float64   `json:"max"`
	Residuals  []float64 `json:"residuals"` // eight samples of the history, first to last
}

type convergenceResult struct {
	Aniso          solveResult  `json:"aniso"`
	Iso            solveResult  `json:"iso"`
	ElementRatio   float64      `json:"element_ratio"`   // iso / aniso triangles
	IterationRatio float64      `json:"iteration_ratio"` // iso / aniso iterations
	Stagnation     []geom.Point `json:"stagnation"`      // lowest-speed cells on the body, anisotropic mesh
}

// convergenceStudy solves the same model problem on the anisotropic
// pipeline mesh and on the isotropic mesh of the same geometry and
// sizing (Figure 16), and locates the stagnation proxies of Figures 14
// and 15 on the anisotropic solution.
func convergenceStudy(s convergenceSetup, w io.Writer) (*convergenceResult, error) {
	cfg := core.DefaultConfig()
	cfg.Geometry = airfoil.Single(airfoil.NACA0012, s.N, 10)
	cfg.BL = blayer.DefaultParams()
	cfg.BL.Growth = growth.Geometric{H0: s.BLH0, Ratio: 1.3}
	cfg.BL.MaxLayers = s.Layers
	cfg.SurfaceH0 = 0.04
	cfg.Gradation = 0.25
	cfg.HMax = 2
	cfg.Ranks = 2
	aniso, err := core.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("anisotropic mesh: %w", err)
	}
	iso, err := core.IsotropicBaseline(cfg, s.IsoFactor)
	if err != nil {
		return nil, fmt.Errorf("isotropic mesh: %w", err)
	}
	g, err := cfg.Geometry.Graph()
	if err != nil {
		return nil, err
	}
	surf := sizing.NewGraded(g.Surfaces[0].Points, 1, 0, 0)
	bc := solver.AirfoilBC(func(p geom.Point) bool { return surf.Distance(p) < 0.05 })
	fmt.Fprintln(w, "Figure 16: convergence of the model problem")
	solve := func(name string, m *mesh.Mesh) (*solver.Solution, solveResult, error) {
		sol, err := solver.Solve(
			solver.Problem{Mesh: m, Diffusivity: 0.01, Velocity: geom.V(1, 0.1), Boundary: bc},
			solver.Options{Tol: s.Tol, MaxIters: 500000, Method: solver.GaussSeidel})
		if err != nil {
			return nil, solveResult{}, fmt.Errorf("%s solve: %w", name, err)
		}
		h := sol.History
		r := solveResult{Triangles: m.NumTriangles(), Iterations: h.Iterations, Converged: h.Converged, Min: sol.Min, Max: sol.Max}
		for i := range 8 {
			r.Residuals = append(r.Residuals, h.Residuals[i*(len(h.Residuals)-1)/7])
		}
		fmt.Fprintf(w, "%-12s %9d triangles %7d iterations  converged=%v  field [%.3f, %.3f]  residuals %.1e\n",
			name, r.Triangles, r.Iterations, r.Converged, r.Min, r.Max, r.Residuals)
		return sol, r, nil
	}
	var r convergenceResult
	var sa *solver.Solution
	if sa, r.Aniso, err = solve("anisotropic", aniso.Mesh); err != nil {
		return nil, err
	}
	if _, r.Iso, err = solve("isotropic", iso); err != nil {
		return nil, err
	}
	r.ElementRatio = float64(r.Iso.Triangles) / float64(r.Aniso.Triangles)
	r.IterationRatio = float64(r.Iso.Iterations) / float64(r.Aniso.Iterations)
	px, err := solver.Proxies(aniso.Mesh, sa.U)
	if err != nil {
		return nil, fmt.Errorf("flow proxies: %w", err)
	}
	isBody := func(p geom.Point) bool { return surf.Distance(p) < 0.02 }
	if r.Stagnation, err = solver.Stagnation(aniso.Mesh, px.Speed, isBody, 3); err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "element ratio   iso/aniso = %.1fx (paper: 14.7x)\n", r.ElementRatio)
	fmt.Fprintf(w, "iteration ratio iso/aniso = %.2fx (paper: ~2x)\n", r.IterationRatio)
	fmt.Fprintf(w, "Figures 14/15: stagnation proxies on the body %.3f\n", r.Stagnation)
	return &r, nil
}
