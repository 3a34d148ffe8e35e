package lu

import (
	"time"

	"npbgo/internal/team"
)

// lowerRow performs the fused jacld+blts update for row j of plane k:
// for each interior i, apply the k-1, j-1 and i-1 couplings and invert
// the diagonal block.
func (b *Benchmark) lowerRow(ws *sweepScratch, j, k int) {
	for i := 1; i < b.n-1; i++ {
		b.lowerPoint(ws, i, j, k)
	}
}

// upperRow performs the fused jacu+buts update for row j of plane k,
// sweeping i downward.
func (b *Benchmark) upperRow(ws *sweepScratch, j, k int) {
	for i := b.n - 2; i >= 1; i-- {
		b.upperPoint(ws, i, j, k)
	}
}

// ensurePipe binds the benchmark to tm and (re)builds the cached
// plane pipeline when the team changes. The team-wired pipeline charges
// per-plane stalls to each worker's obs wait slot and trace timeline —
// the paper's LU scalability culprit, made visible per worker instead
// of folded into run time.
func (b *Benchmark) ensurePipe(tm *team.Team) {
	b.tm = tm
	if b.pipeOwner != tm {
		b.pipe = tm.NewPipeline(b.n)
		b.pipeOwner = tm
	}
}

// Iter runs one timed SSOR istep — residual scaling, the pipelined (or
// hyperplane) triangular sweeps, the flow-variable update and the rhs
// recomputation — on tm, whose Size must equal the thread count the
// Benchmark was built with. Iter is the steady-state hook the
// allocation gate measures: after the first call it performs no heap
// allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.ensurePipe(tm)
	b.env.Start("scale+update")
	// Scale the residual by the pseudo-time step.
	tm.Run(b.scaleBody)

	b.env.Stop("scale+update")
	b.env.Start("sweeps")
	if b.hyper {
		b.lowerSweepHyperplane(tm)
		b.upperSweepHyperplane(tm)
	} else {
		// Both triangular sweeps, pipelined over planes, in one region.
		tm.Run(b.sweepsBody)
	}

	b.env.Stop("sweeps")
	b.env.Start("scale+update")
	// Update the flow variables.
	tm.Run(b.updateBody)

	b.env.Stop("scale+update")
	b.env.Start("rhs")
	b.rhs(tm)
	b.env.Stop("rhs")
}

// ssor runs the timed SSOR iteration loop and returns the elapsed time
// of the timed section (lu.f's ssor). The triangular sweeps are
// pipelined over j-blocks: worker w may process plane k only after
// worker w-1 has finished plane k (and the reverse for the upper sweep)
// — the in-loop synchronization the paper blames for LU's scalability.
func (b *Benchmark) ssor(tm *team.Team) time.Duration {
	b.rhs(tm)
	b.l2norm(b.rsd) // initial residual, reported by the cmd wrapper

	start := time.Now()
	for istep := 1; istep <= b.itmax && !tm.Cancelled(); istep++ {
		b.Iter(tm)
	}
	return time.Since(start)
}
