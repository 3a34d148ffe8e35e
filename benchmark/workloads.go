package main

import (
	"fmt"
	"strings"

	"npbgo"
)

// nominalSeconds is BENCHMARK.json's run_seconds: the -seconds value at
// which the sample counts K below apply as written. Another -seconds
// scales every K in proportion, so run length is always set by the
// tables here and is the same for any two commits measured alike.
const nominalSeconds = 20

// cell is one (benchmark, class, threads, schedule) point, sampled K
// times per run at the nominal run length.
type cell struct {
	Bench    npbgo.Benchmark
	Class    byte
	Threads  int
	Schedule string
	K        int
}

func (c cell) String() string {
	return fmt.Sprintf("%s.%c.t%d.%s", c.Bench, c.Class, c.Threads, c.Schedule)
}

// code is the lower-case benchmark name used in metric names.
func (c cell) code() string { return strings.ToLower(string(c.Bench)) }

func (c cell) config() npbgo.Config {
	return npbgo.Config{Benchmark: c.Bench, Class: c.Class, Threads: c.Threads, Schedule: c.Schedule}
}

// workload is a named set of cells; Why is the one-line reason recorded
// in BENCHMARK.json.
type workload struct {
	Name  string
	Why   string
	Cells []cell
}

// schedule is the loop schedule every cell of the workload runs under.
func (w workload) schedule() string { return w.Cells[0].Schedule }

func cells(class byte, threads int, schedule string, k int, benches ...npbgo.Benchmark) []cell {
	out := make([]cell, len(benches))
	for i, b := range benches {
		out[i] = cell{b, class, threads, schedule, k}
	}
	return out
}

// workloads is the benchmark. Sample counts were sized on a 2-vCPU host
// so that one run takes 15-25 s; see README.md for the measurements.
var workloads = []workload{
	{
		Name:  "apps-S-t1",
		Why:   "BT, SP, LU at class S on one thread: regions run inline, so all time is in nscore/bt/sp/lu and none in the team",
		Cells: cells('S', 1, "static", 80, npbgo.BT, npbgo.SP, npbgo.LU),
	},
	{
		Name: "kernels-W-t2",
		Why:  "CG, MG, FT, IS at class W plus EP.S on two threads: 5-50 MB arrays against a 2 MB L2, so memory traffic and set-up weigh most here",
		Cells: []cell{
			{npbgo.CG, 'W', 2, "static", 14},
			{npbgo.MG, 'W', 2, "static", 14},
			{npbgo.FT, 'W', 2, "static", 14},
			{npbgo.IS, 'W', 2, "static", 14},
			{npbgo.EP, 'S', 2, "static", 7},
		},
	},
	{
		Name:  "small-S-t2",
		Why:   "seven codes at class S on two threads: regions last microseconds, so fork-join, barriers and the LU pipeline dominate",
		Cells: cells('S', 2, "static", 50, npbgo.BT, npbgo.SP, npbgo.LU, npbgo.FT, npbgo.MG, npbgo.CG, npbgo.IS),
	},
	{
		Name:  "small-S-t2-dynamic",
		Why:   "the same cells under the dynamic schedule: every Loop goes through the shared chunk dispenser the static split bypasses",
		Cells: cells('S', 2, "dynamic", 50, npbgo.BT, npbgo.SP, npbgo.LU, npbgo.FT, npbgo.MG, npbgo.CG, npbgo.IS),
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// iterations is the NPB iteration count of each code at each class the
// benchmark runs, fixed by the NPB specification; <code>.iter_ms divides
// the best time by it. EP counts its 2^16-pair batches.
var iterations = map[npbgo.Benchmark]map[byte]int{
	npbgo.BT: {'S': 60, 'W': 200, 'A': 200},
	npbgo.SP: {'S': 100, 'W': 400, 'A': 400},
	npbgo.LU: {'S': 50, 'W': 300, 'A': 250},
	npbgo.FT: {'S': 6, 'W': 6, 'A': 6},
	npbgo.MG: {'S': 4, 'W': 4, 'A': 4},
	npbgo.CG: {'S': 15, 'W': 15, 'A': 15},
	npbgo.IS: {'S': 10, 'W': 10, 'A': 10},
	npbgo.EP: {'S': 256, 'W': 512, 'A': 4096},
}

// metricDecl declares one metric as BENCHMARK.json lists it.
type metricDecl struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// Moves names, for a per-layer metric, the end-to-end metric and
	// workload it is predicted to move (README.md has the full table).
	Moves string
}

// endToEnd is what a user of the suite sees. The bounds are as wide as
// a bound may be because the sizing host itself moves between a calm
// and a slow state 17-38% apart that last tens of minutes (README.md).
var endToEnd = []metricDecl{
	{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "mops_geomean", Unit: "Mop/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// kernelCodes are the five kernels whose layer pass adds a one-thread
// run (the plain single-threaded baseline).
var kernelCodes = []npbgo.Benchmark{npbgo.CG, npbgo.MG, npbgo.FT, npbgo.IS, npbgo.EP}

// perLayer lists every per-layer metric in print order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDecl {
	const (
		small   = "solve_s on small-S-t2"
		dynamic = "solve_s on small-S-t2-dynamic"
		apps    = "solve_s on apps-S-t1"
		setup   = "setup_s on kernels-W-t2"
		none    = "none: explains runs that disagree"
	)
	lower := func(name, unit, moves string) metricDecl {
		return metricDecl{Name: name, Unit: unit, Better: "lower", Moves: moves}
	}
	var out []metricDecl
	for _, b := range npbgo.Benchmarks() {
		c := strings.ToLower(string(b))
		out = append(out, lower(c+"_s", "s", "its share of solve_s where the workload lists "+string(b)))
	}
	out = append(out,
		lower("team.forkjoin_ns", "ns", small),
		lower("team.forkjoin_parked_ns", "ns", small),
		lower("team.barrier_ns", "ns", small),
		lower("team.reduce_ns", "ns", small),
		lower("team.new_close_us", "us", "setup_s on small-S-t2"),
		lower("team.loop_static_ns_per_iter", "ns", small),
		lower("team.pipeline_step_ns", "ns", "lu_s on small-S-t2"),
		lower("team.loop_dynamic_ns_per_chunk", "ns", dynamic),
		lower("team.loop_guided_ns_per_chunk", "ns", dynamic+" (guided is not run end to end)"),
		lower("team.loop_stealing_ns_per_chunk", "ns", dynamic+" (stealing is not run end to end)"),
		lower("team.regions", "count", small),
		lower("team.join_wait_share", "ratio", small),
		lower("team.barrier_wait_share", "ratio", "lu_s on small-S-t2"),
		lower("team.imbalance_max", "ratio", small),
		lower("team.chunks", "count", dynamic),
		lower("team.steals", "count", dynamic),
		lower("nscore.rhs_ms", "ms", apps),
		lower("nscore.add_ms", "ms", apps),
	)
	for _, p := range []string{"bt.xsolve_s", "bt.ysolve_s", "bt.zsolve_s", "bt.rhs_s",
		"sp.rhs_s", "sp.xsolve_s", "sp.ysolve_s", "sp.zsolve_s", "lu.sweeps_s", "lu.rhs_s"} {
		out = append(out, lower(p, "s", p[:2]+"_s on apps-S-t1"))
	}
	out = append(out,
		lower("cg.conj_grad_s", "s", "cg_s on kernels-W-t2"),
		lower("ep.batch_s", "s", "ep_s on kernels-W-t2"),
	)
	for _, b := range npbgo.Benchmarks() {
		c := strings.ToLower(string(b))
		out = append(out, lower(c+".iter_ms", "ms", c+"_s"))
	}
	for _, b := range kernelCodes {
		c := strings.ToLower(string(b))
		out = append(out,
			lower(c+".t1_s", "s", c+"_s on kernels-W-t2: fewer flops moves both alike"),
			metricDecl{Name: c + ".speedup_t2", Unit: "ratio", Better: "higher",
				Moves: c + "_s on kernels-W-t2: fewer bytes moved raises it"})
	}
	for _, b := range npbgo.Benchmarks() {
		c := strings.ToLower(string(b))
		out = append(out, lower(c+".setup_s", "s", setup))
	}
	out = append(out,
		lower("randdp.randlc_ns", "ns", setup+"; ep_s"),
		lower("randdp.vranlc_ns_per_num", "ns", setup+"; ep_s"),
		lower("grid.at_ns_per_elem", "ns", apps),
		lower("grid.stride_ns_per_elem", "ns", apps),
		lower("ops.first_order_ns_per_pt", "ns", apps),
		lower("ops.second_order_ns_per_pt", "ns", apps),
		lower("ops.matvec_ns_per_pt", "ns", apps),
		lower("timer.startstop_ns", "ns", "none end to end: timers are nil there"),
		lower("obs.tax_ratio", "ratio", "none: instrument tax"),
		lower("trace.tax_ratio", "ratio", "none: instrument tax"),
		lower("trace.events", "count", "none: instrument tax"),
		lower("trace.dropped", "count", "none: instrument tax"),
		lower("run.wall_s", "s", "none: every sample with its set-up and forced collection, so it follows the host"),
		lower("mem.peak_rss_mb", "MB", setup),
		lower("gc.cycles", "count", setup),
		lower("gc.pause_total_ms", "ms", setup),
		lower("alloc.mallocs_per_sample", "count", setup),
		lower("host.steal_ratio", "ratio", none),
		lower("host.calib_drift", "ratio", none),
		metricDecl{Name: "host.gomaxprocs", Unit: "count", Better: "higher", Moves: none},
		lower("host.oversubscribed", "count", none),
	)
	return out
}
