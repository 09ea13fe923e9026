package perfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func uniformTasks(n int, cost float64, bytes int64) []Task {
	tasks := make([]Task, n)
	for i := range tasks {
		tasks[i] = Task{Cost: cost, Bytes: bytes}
	}
	return tasks
}

func TestSimulateSequential(t *testing.T) {
	tasks := uniformTasks(10, 2.0, 1000)
	r := Simulate(tasks, 1, FDRInfiniband(), 1.0)
	if math.Abs(r.Makespan-21.0) > 1e-12 {
		t.Errorf("sequential makespan = %v, want 21", r.Makespan)
	}
	if r.Steals != 0 {
		t.Error("sequential run cannot steal")
	}
}

func TestSimulatePerfectParallel(t *testing.T) {
	// 64 equal tasks on 8 ranks, free network, no sequential part:
	// perfect speedup.
	tasks := uniformTasks(64, 1.0, 0)
	r := Simulate(tasks, 8, Network{Latency: 0, Bandwidth: 1e30}, 0)
	if math.Abs(r.Makespan-8.0) > 1e-9 {
		t.Errorf("makespan = %v, want 8", r.Makespan)
	}
}

func TestAmdahlCeiling(t *testing.T) {
	// With a sequential fraction, speedup must respect Amdahl's law.
	tasks := uniformTasks(1024, 1.0, 0)
	seq := 10.24 // 1% of the 1024s of work
	pts := StrongScaling(tasks, seq, Network{Latency: 0, Bandwidth: 1e30}, []int{1, 32, 1024})
	if pts[0].Speedup != 1 {
		t.Errorf("P=1 speedup = %v", pts[0].Speedup)
	}
	// Amdahl: S(P) = (T1)/(seq + work/P).
	for _, p := range pts[1:] {
		want := (seq + 1024.0) / (seq + 1024.0/float64(p.Ranks))
		if math.Abs(p.Speedup-want) > 0.02*want {
			t.Errorf("P=%d speedup %v, want ~%v", p.Ranks, p.Speedup, want)
		}
	}
}

func TestEfficiencyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(200)
		tasks := make([]Task, n)
		for i := range tasks {
			tasks[i] = Task{Cost: rng.Float64()*4 + 0.01, Bytes: int64(rng.Intn(100000))}
		}
		pts := StrongScaling(tasks, rng.Float64(), FDRInfiniband(), []int{1, 2, 4, 8, 16})
		for _, p := range pts {
			if p.Efficiency > 1.0+1e-9 || p.Efficiency <= 0 {
				return false
			}
			if p.Speedup > float64(p.Ranks)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestImbalanceHurtsScaling(t *testing.T) {
	// One giant task and many small ones: the makespan is bounded below by
	// the giant task, so speedup saturates.
	tasks := []Task{{Cost: 50}}
	tasks = append(tasks, uniformTasks(100, 0.5, 0)...)
	r := Simulate(tasks, 64, Network{Latency: 0, Bandwidth: 1e30}, 0)
	if r.Makespan < 50 {
		t.Errorf("makespan %v below the critical path of 50", r.Makespan)
	}
	// Speedup bound: total work 100 / 50 = 2.
	if sp := 100.0 / r.Makespan; sp > 2.0+1e-9 {
		t.Errorf("speedup %v beyond critical path bound", sp)
	}
}

func TestStealsHappen(t *testing.T) {
	// With tasks dealt round-robin but wildly uneven costs, some rank runs
	// dry and must steal.
	rng := rand.New(rand.NewSource(1))
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{Cost: math.Pow(10, rng.Float64()*2), Bytes: 1 << 16}
	}
	r := Simulate(tasks, 8, FDRInfiniband(), 0)
	if r.Steals == 0 {
		t.Error("uneven workload must trigger steals")
	}
}

func TestSlowNetworkDegradesEfficiency(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tasks := make([]Task, 200)
	for i := range tasks {
		tasks[i] = Task{Cost: rng.Float64() * 0.01, Bytes: 10 << 20}
	}
	fast := Simulate(tasks, 16, FDRInfiniband(), 0)
	slow := Simulate(tasks, 16, Network{Latency: 1e-3, Bandwidth: 1e6}, 0)
	if slow.Makespan <= fast.Makespan {
		t.Errorf("slow network makespan %v not worse than fast %v", slow.Makespan, fast.Makespan)
	}
}

func TestPaperScalingShape(t *testing.T) {
	// A workload shaped like the paper's: thousands of graded subdomains,
	// sequential fraction ~0.2% of the work. The resulting curve must show
	// the paper's regime: near-linear at small P, ~80% efficiency at 128,
	// ~70% at 256, and efficiency decreasing with P.
	rng := rand.New(rand.NewSource(7))
	var tasks []Task
	for i := 0; i < 4096; i++ {
		tasks = append(tasks, Task{
			Cost:  0.04 + rng.Float64()*0.02,
			Bytes: 64 << 10,
		})
	}
	var work float64
	for _, t := range tasks {
		work += t.Cost
	}
	seq := 0.002 * work
	pts := StrongScaling(tasks, seq, FDRInfiniband(), []int{1, 2, 4, 8, 16, 32, 64, 128, 256})
	for i := 1; i < len(pts); i++ {
		if pts[i].Speedup <= pts[i-1].Speedup {
			t.Errorf("speedup not increasing: P=%d %v -> P=%d %v",
				pts[i-1].Ranks, pts[i-1].Speedup, pts[i].Ranks, pts[i].Speedup)
		}
		if pts[i].Efficiency > pts[i-1].Efficiency+1e-9 {
			t.Errorf("efficiency increasing with P at %d", pts[i].Ranks)
		}
	}
	e128 := pts[7].Efficiency
	e256 := pts[8].Efficiency
	if e128 < 0.6 || e128 > 0.95 {
		t.Errorf("efficiency at 128 = %v, want the paper's ~0.8 regime", e128)
	}
	if e256 < 0.5 || e256 > 0.9 {
		t.Errorf("efficiency at 256 = %v, want the paper's ~0.7 regime", e256)
	}
	if e256 >= e128 {
		t.Errorf("efficiency must drop from 128 (%v) to 256 (%v)", e128, e256)
	}
}

func TestFormatTable(t *testing.T) {
	pts := []ScalePoint{{Ranks: 1, Time: 1, Speedup: 1, Efficiency: 1}}
	s := FormatTable(pts)
	if len(s) == 0 {
		t.Error("empty table")
	}
}

func BenchmarkSimulate256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tasks := make([]Task, 4096)
	for i := range tasks {
		tasks[i] = Task{Cost: rng.Float64() * 0.1, Bytes: 64 << 10}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Simulate(tasks, 256, FDRInfiniband(), 0.1)
	}
}

func TestPrefetchHidesCommunication(t *testing.T) {
	// Heavy transfers on a slow network: with prefetch the steal latency
	// hides behind the previous task; without it, the mesher blocks.
	rng := rand.New(rand.NewSource(5))
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{Cost: 0.01 + rng.Float64()*0.05, Bytes: 8 << 20}
	}
	net := Network{Latency: 1e-4, Bandwidth: 1e9} // 8 MiB ~ 8 ms per steal
	with := SimulatePolicy(tasks, 8, net, 0, Policy{LargestFirst: true, Prefetch: true})
	without := SimulatePolicy(tasks, 8, net, 0, Policy{LargestFirst: true, Prefetch: false})
	if with.Steals == 0 {
		t.Skip("no steals in this configuration")
	}
	if with.Makespan >= without.Makespan {
		t.Errorf("prefetch makespan %v not better than blocking %v (steals=%d)",
			with.Makespan, without.Makespan, with.Steals)
	}
}

func TestPolicyDefaults(t *testing.T) {
	tasks := uniformTasks(32, 1, 1000)
	a := Simulate(tasks, 4, FDRInfiniband(), 0)
	b := SimulatePolicy(tasks, 4, FDRInfiniband(), 0, Policy{LargestFirst: true, Prefetch: true})
	if a.Makespan != b.Makespan {
		t.Errorf("Simulate must equal the default policy: %v vs %v", a.Makespan, b.Makespan)
	}
}
