// Command bench is the repository's one benchmark: five named workloads
// at paper-relevant mesh sizes, end-to-end and per-layer metrics, a
// traced pass, and regression bounds (BENCHMARK.json at the repository
// root declares the same workloads and metrics). See README.md here.
//
//	go run ./bench -workload all -seed 1 -o result.json   # everything
//	go run ./bench -workload naca-viscous -trace 0        # one workload, end-to-end only
//	go run ./bench -compare a.json b.json                 # two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

const resultSchema = "pamg2d-bench/1"

var kindLabel = map[string]string{kindE2E: "end-to-end", kindLayer: "per-layer"}

// defaultSeconds is BENCHMARK.json's run_seconds: the length of the
// timed phase of one workload.
const defaultSeconds = 16

// resultFile is what -o writes and -compare reads.
type resultFile struct {
	Schema    string            `json:"schema"`
	Host      hostInfo          `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Quick     bool              `json:"quick,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "workload to run: all | "+strings.Join(workloadNames, " | "))
		seed     = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", defaultSeconds, "length of each workload's timed phase")
		traceOn  = fs.Int("trace", 1, "1: also run the traced pass, the layer replay and the probes, and end with the per-layer metrics; 0: end-to-end metrics only")
		out      = fs.String("o", "", "write the result file here")
		outDir   = fs.String("outdir", "bench/out", "directory for span files, Chrome traces and the temporary meshd build")
		quick    = fs.Bool("quick", false, "tiny inputs, one repetition, no numbers kept: a smoke run")
		compare  = fs.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *workload != "all" {
		if _, ok := workloadWhy[*workload]; !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}

	sz := fullSizes
	if *quick {
		sz = quickSizes
		*seconds = 0
	}
	in, err := makeInputs(*seed, sz)
	if err != nil {
		fmt.Fprintf(stderr, "bench: inputs: %v\n", err)
		return 1
	}
	host := readHost()
	rc := &runCtx{in: in, seconds: *seconds, traced: *traceOn != 0, quick: *quick, outDir: *outDir, host: &host, log: stderr}
	host.ParallelismBefore = rc.parallelism()

	file := &resultFile{Schema: resultSchema, Seed: *seed, Seconds: *seconds, Traced: rc.traced, Quick: *quick}
	for _, name := range names {
		rc.logf("bench: %s ...", name)
		rc.cal = newCalibrator()
		res := runWorkload(rc, name)
		file.Workloads = append(file.Workloads, res)
		printWorkload(stdout, res, rc.traced)
	}
	host.ParallelismAfter = rc.parallelism()
	file.Host = host
	fmt.Fprintf(stdout, "host: num_cpu=%d gomaxprocs=%d cgroup_cpu_max=%q go=%s commit=%s host.parallelism=%.2f/%.2f seed=%d\n",
		host.NumCPU, host.GOMAXPROCS, host.CgroupCPU, host.GoVersion, host.GitCommit, host.ParallelismBefore, host.ParallelismAfter, *seed)
	if *out != "" {
		if err := writeJSONFile(*out, file); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if err := printContractLine(stdout, file, rc.traced); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	for _, w := range file.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

func runWorkload(rc *runCtx, name string) *workloadResult {
	in := rc.in
	switch name {
	case wlViscous:
		return runGeneration(rc, &genSpec{name: name, cfg: in.Viscous, pipelineAudit: true,
			floor1r: 5, floor2r: 5, auditReps: 1, setupRounds: 1, keepTrace: true})
	case wlInviscid:
		return runGeneration(rc, &genSpec{name: name, cfg: in.Inviscid, pipelineAudit: true,
			floor1r: 5, floor2r: 5, auditReps: 4, setupRounds: 1, keepTrace: true})
	case wlHighlift:
		rounds := 3
		if rc.quick {
			rounds = 1
		}
		return runGeneration(rc, &genSpec{name: name, cfg: in.Highlift, tcp: true,
			floor1r: 15, floor2r: 15, floorTCP: 40, auditReps: 1, setupRounds: rounds, keepTrace: true})
	case wlAdapt:
		return runAdapt(rc)
	default:
		return runMeshdMix(rc)
	}
}

// printWorkload prints every metric by name with its unit.
func printWorkload(w io.Writer, r *workloadResult, traced bool) {
	fmt.Fprintf(w, "== %s: attempted=%d failed=%d correct=%v wall=%.1fs\n", r.Name, r.Attempted, r.Failed, r.Correct, r.WallS)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	for _, d := range metricDefs {
		if d.Kind == kindLayer && !traced && r.Metrics[d.Name].N == 0 {
			continue
		}
		m := r.Metrics[d.Name]
		val := fmt.Sprintf("%.6g", m.Value)
		if m.Label != "" {
			val = fmt.Sprintf("null (%s; measured %.6g)", m.Label, m.Value)
		}
		fmt.Fprintf(w, "%-10s %-32s %s %s", kindLabel[d.Kind], d.Name, val, d.Unit)
		if m.N > 1 {
			fmt.Fprintf(w, "  [q1 %.6g q3 %.6g n %d]", m.Q1, m.Q3, m.N)
		}
		fmt.Fprintln(w)
	}
	if len(r.SelfTimeS) > 0 {
		layers := make([]string, 0, len(r.SelfTimeS))
		for l := range r.SelfTimeS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		var total float64
		fmt.Fprintf(w, "traced pass %.3f s, self time by layer:", r.TracedWallS)
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.3f", l, r.SelfTimeS[l])
			total += r.SelfTimeS[l]
		}
		fmt.Fprintf(w, " (sum %.3f)\n", total)
	}
}

// printContractLine ends the output with the one JSON object the driver
// reads: correct, attempted, failed, and every end-to-end metric (-trace
// 0) or every per-layer metric (-trace 1). With several workloads the
// metric names are prefixed by the workload.
func printContractLine(w io.Writer, file *resultFile, traced bool) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	kind := kindE2E
	if traced {
		kind = kindLayer
	}
	line := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{Correct: true, Metrics: map[string]val{}}
	for _, r := range file.Workloads {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for _, d := range metricDefs {
			if d.Kind != kind {
				continue
			}
			name := d.Name
			if len(file.Workloads) > 1 {
				name = r.Name + "/" + d.Name
			}
			line.Metrics[name] = val{r.Metrics[d.Name].Value, d.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
