package main

import (
	"context"
	"runtime"
	"slices"
	"strings"

	"npbgo"
)

// repeats is how often the layer pass samples a cell under an
// instrument or at one thread: once when a plain sample (set-up
// included) takes a quarter of a second or more, five times when it is
// shorter and a single sample would mostly measure the host.
func repeats(r *cellRun) int {
	if b, _ := r.best(0); b.timed+r.minUntimed() >= 0.25 {
		return 1
	}
	return 5
}

// layerPass produces every per-layer metric for one workload. The
// end-to-end numbers never come from here: they are computed from the
// plain run before any instrument is switched on, and the instrumented
// over plain ratio reported below is the instruments' overhead.
//
// So that each metric has a value on every workload, a code the
// workload does not list is filled in with its class-S cell at two
// threads under the workload's schedule; fill-ins feed only their own
// <code>.* metrics, never the workload-level ones.
func layerPass(ctx context.Context, w workload, pr *plainRun, probeScale float64, sp *spans, parent int) (map[string]float64, tally) {
	// The workload-level sums and maxima start at zero; everything else
	// is set outright.
	out := map[string]float64{
		"team.regions": 0, "team.imbalance_max": 0, "team.chunks": 0, "team.steals": 0,
		"trace.events": 0, "trace.dropped": 0,
	}
	var tl tally
	pass := sp.begin("layers", "pass", parent)
	defer sp.end(pass)

	// runs holds the workload's own cells first, then the fill-ins.
	runs := append([]*cellRun(nil), pr.runs...)
	for _, b := range npbgo.Benchmarks() {
		if slices.ContainsFunc(pr.runs, func(r *cellRun) bool { return r.cell.Bench == b }) {
			continue
		}
		r := &cellRun{cell: cell{b, 'S', 2, w.schedule(), 3}}
		for i := 0; i < r.cell.K; i++ {
			s, _ := runSample(ctx, r.cell.config(), sp, pass, r.cell.String())
			r.samples = append(r.samples, s)
			tl.add(s)
		}
		runs = append(runs, r)
	}

	// again samples a variant of the cell n times and returns its best
	// sample with that sample's Result.
	again := func(c cell, n int, tag string, edit func(*npbgo.Config)) (sample, npbgo.Result, bool) {
		cfg := c.config()
		edit(&cfg)
		var best sample
		var bestRes npbgo.Result
		found := false
		for i := 0; i < n; i++ {
			s, res := runSample(ctx, cfg, sp, pass, c.String()+"+"+tag)
			tl.add(s)
			if s.ok && (!found || s.timed < best.timed) {
				best, bestRes, found = s, res, true
			}
		}
		return best, bestRes, found
	}

	var plainSum, obsSum, traceSum float64 // own cells, equal sample counts
	var elapsed, joinWait, barrierWait float64
	for i, r := range runs {
		c := r.cell
		code := c.code()
		plain, ok := r.best(0)
		if !ok {
			continue
		}
		out[code+"_s"] = plain.timed
		out[code+".iter_ms"] = plain.timed * 1e3 / float64(iterations[c.Bench][c.Class])
		out[code+".setup_s"] = r.minUntimed()

		n := repeats(r)
		if n > len(r.samples) {
			n = len(r.samples)
		}
		obs, obsRes, okObs := again(c, n, "obs", func(cfg *npbgo.Config) { cfg.Profile, cfg.Obs = true, true })
		tr, trRes, okTr := again(c, n, "trace", func(cfg *npbgo.Config) { cfg.Trace = true })
		if !okObs || !okTr {
			continue
		}
		// Phase "rhs" of BT is bt.rhs_s, "t_conj_grad" of CG cg.conj_grad_s,
		// and EP's per-worker "t_batch/w<id>" all ep.batch_s, of which the
		// slowest counts. Phases without a declared metric are dropped.
		for _, p := range obsRes.Phases {
			phase, _, _ := strings.Cut(strings.TrimPrefix(p.Name, "t_"), "/")
			if name := code + "." + phase + "_s"; isPerLayer(name) && p.Seconds > out[name] {
				out[name] = p.Seconds
			}
		}
		if i >= len(pr.runs) { // a fill-in
			continue
		}
		same, _ := r.best(n)
		plainSum += same.timed
		obsSum += obs.timed
		traceSum += tr.timed
		st := obsRes.Obs
		out["team.regions"] += float64(st.Regions)
		elapsed += obs.timed
		joinWait += st.JoinWait.Seconds()
		barrierWait += st.BarrierWait.Seconds() / float64(st.Workers)
		if im := st.Imbalance(); im > out["team.imbalance_max"] {
			out["team.imbalance_max"] = im
		}
		for i := range st.Chunks {
			out["team.chunks"] += float64(st.Chunks[i])
			out["team.steals"] += float64(st.Steals[i])
		}
		out["trace.events"] += float64(trRes.Trace.Events())
		out["trace.dropped"] += float64(trRes.Trace.Drops())
	}
	out["obs.tax_ratio"] = obsSum / plainSum
	out["trace.tax_ratio"] = traceSum / plainSum
	out["team.join_wait_share"] = joinWait / elapsed
	out["team.barrier_wait_share"] = barrierWait / elapsed

	// The plain single-threaded baseline of the five kernels.
	for _, r := range runs {
		c := r.cell
		if !slices.Contains(kernelCodes, c.Bench) {
			continue
		}
		plain, ok := r.best(0)
		if !ok {
			continue
		}
		t1, _, ok := again(c, repeats(r), "t1", func(cfg *npbgo.Config) { cfg.Threads = 1 })
		if !ok {
			continue
		}
		out[c.code()+".t1_s"] = t1.timed
		out[c.code()+".speedup_t2"] = t1.timed / plain.timed
	}

	for name, v := range probe(probeScale, sp, pass) {
		out[name] = v
	}
	return out, tl
}

// isPerLayer reports whether name is a declared per-layer metric.
func isPerLayer(name string) bool {
	return slices.ContainsFunc(perLayer, func(d metricDecl) bool { return d.Name == name })
}

// runtimeMetrics reports what the Go runtime and the host did during
// the plain run, from readings taken just before and after it.
func runtimeMetrics(pr *plainRun) map[string]float64 {
	before, after := &pr.memBefore, &pr.memAfter
	out := map[string]float64{
		"run.wall_s":               pr.wall,
		"mem.peak_rss_mb":          pr.peakRSSMB,
		"gc.cycles":                float64(after.NumGC - before.NumGC),
		"gc.pause_total_ms":        float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
		"alloc.mallocs_per_sample": float64(after.Mallocs-before.Mallocs) / float64(pr.tally.attempted),
		"host.calib_drift":         pr.calibDrift(),
		"host.gomaxprocs":          float64(runtime.GOMAXPROCS(0)),
		"host.oversubscribed":      0,
		"host.steal_ratio":         0,
	}
	if total := pr.jiffiesAfter - pr.jiffiesBefore; total > 0 {
		out["host.steal_ratio"] = (pr.stealAfter - pr.stealBefore) / total
	}
	if oversubscribed() {
		out["host.oversubscribed"] = 1
	}
	return out
}
