package main

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"time"

	"npbgo"
)

// sample is one run of one cell: timed is the benchmark's own timed
// section (Result.Elapsed), untimed everything else RunContext did —
// allocation, input generation, the warm-up iteration, verification,
// team start and close.
type sample struct {
	timed, untimed float64 // seconds
	mops           float64
	ok             bool // ran without error and passed NPB verification
}

// cellRun accumulates the samples of one cell; k is how many the run
// takes of it.
type cellRun struct {
	cell    cell
	k       int
	samples []sample
}

// best is the sample with the smallest timed section among the first n
// good ones (all of them for n <= 0); ok is false when none was good.
func (r *cellRun) best(n int) (b sample, ok bool) {
	seen := 0
	for _, s := range r.samples {
		if !s.ok {
			continue
		}
		if !ok || s.timed < b.timed {
			b, ok = s, true
		}
		if seen++; seen == n {
			break
		}
	}
	return b, ok
}

// minUntimed is the smallest set-up time among the good samples.
func (r *cellRun) minUntimed() float64 {
	var xs []float64
	for _, s := range r.samples {
		if s.ok {
			xs = append(xs, s.untimed)
		}
	}
	return minOf(xs)
}

// tally counts samples attempted and failed across runs.
type tally struct{ attempted, failed int }

func (t *tally) add(s sample) {
	t.attempted++
	if !s.ok {
		t.failed++
	}
}

// runSample takes one sample of cfg. The forced collection beforehand is
// untimed: without it the previous cell's garbage is collected inside
// this cell's set-up (MG.A set-up then ranges 1.5-11 s instead of
// 1.56-1.62 s).
func runSample(ctx context.Context, cfg npbgo.Config, sp *spans, parent int, name string) (sample, npbgo.Result) {
	id := sp.begin(name, "sample", parent)
	gc := sp.begin("gc", "gc", id)
	runtime.GC()
	debug.FreeOSMemory()
	sp.end(gc)
	run := sp.begin("run", "run", id)
	t0 := time.Now()
	res, err := npbgo.RunContext(ctx, cfg)
	wall := time.Since(t0)
	sp.end(run)
	sp.end(id)
	return sample{
		timed:   res.Elapsed.Seconds(),
		untimed: (wall - res.Elapsed).Seconds(),
		mops:    res.Mops,
		ok:      err == nil && res.Verified,
	}, res
}

// scaledK is a cell's sample count at the requested run length.
func scaledK(k int, seconds float64) int {
	n := int(math.Round(float64(k) * seconds / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// plainRun is the instrument-free sampling of a workload, the source of
// every end-to-end number.
type plainRun struct {
	runs  []*cellRun
	wall  float64   // seconds, all samples and forced collections
	calib []float64 // seconds per calibration probe, one per pass
	tally tally

	// Runtime and host readings taken just before and after the run.
	memBefore, memAfter         runtime.MemStats
	stealBefore, stealAfter     float64 // jiffies
	jiffiesBefore, jiffiesAfter float64
	peakRSSMB                   float64
}

// calibDrift is how far the slowest calibration probe of the run was
// above the fastest, as a share of the fastest.
func (pr *plainRun) calibDrift() float64 {
	return (maxOf(pr.calib) - minOf(pr.calib)) / minOf(pr.calib)
}

// samplePlain runs the workload's cells in passes: pass p samples every
// cell that still has samples left, in an order shuffled by the seed, so
// a slow stretch of the host is spread over all cells instead of landing
// on one. NPB inputs are fixed by class; the seed changes interleaving
// only.
func samplePlain(ctx context.Context, w workload, seconds float64, seed int64, sp *spans, parent int) *plainRun {
	rng := rand.New(rand.NewSource(seed))
	pr := &plainRun{}
	passes := 0
	for _, c := range w.Cells {
		r := &cellRun{cell: c, k: scaledK(c.K, seconds)}
		pr.runs = append(pr.runs, r)
		if r.k > passes {
			passes = r.k
		}
	}
	runtime.ReadMemStats(&pr.memBefore)
	pr.stealBefore, pr.jiffiesBefore = cpuJiffies()
	start := time.Now()
	for p := 0; p < passes; p++ {
		var order []*cellRun
		for _, r := range pr.runs {
			if p < r.k {
				order = append(order, r)
			}
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		pass := sp.begin("pass", "pass", parent)
		pr.calib = append(pr.calib, calibProbe())
		for _, r := range order {
			s, _ := runSample(ctx, r.cell.config(), sp, pass, r.cell.String())
			r.samples = append(r.samples, s)
			pr.tally.add(s)
		}
		sp.end(pass)
	}
	pr.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&pr.memAfter)
	pr.stealAfter, pr.jiffiesAfter = cpuJiffies()
	pr.peakRSSMB = peakRSSMB()
	return pr
}

// Variables, not constants: with constants the compiler proves the
// chain below is stuck at 1.0 and deletes the loop.
var calibA, calibB, calibSink = 0.999999, 1e-6, 0.0

// calibProbe times a fixed dependent chain of floating-point work
// (about 20 ms on the sizing host). It touches no memory, so its time
// moves only when the host itself does: the spread over a run is
// host.calib_drift.
func calibProbe() float64 {
	t0 := time.Now()
	x := 1.0
	for i := 0; i < 10_000_000; i++ {
		x = x*calibA + calibB
	}
	calibSink = x
	return time.Since(t0).Seconds()
}

// endToEndValues computes the end-to-end metrics from a plain run. A
// cell without a single good sample contributes nothing; the run is
// already marked incorrect through its tally.
func endToEndValues(pr *plainRun) map[string]float64 {
	var solve, setup float64
	var mops []float64
	for _, r := range pr.runs {
		if b, ok := r.best(0); ok {
			solve += b.timed
			mops = append(mops, b.mops)
			setup += r.minUntimed()
		}
	}
	return map[string]float64{
		"solve_s":      solve,
		"mops_geomean": geomean(mops),
		"setup_s":      setup,
	}
}
