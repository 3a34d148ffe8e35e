package lu

import (
	"time"

	"npbgo/internal/grid"
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

// lowerPoint applies the lower-triangular update at one grid point.
//
// Hot path: fused jacld+blts point kernel.
func (b *Benchmark) lowerPoint(ws *sweepScratch, i, j, k int) {
	off := b.at(i, j, k)
	okm := b.at(i, j, k-1)
	ojm := b.at(i, j-1, k)
	oim := b.at(i-1, j, k)

	b.blk.couplingZ(&ws.az, grid.Vec5(b.u, okm), -1)
	b.blk.couplingY(&ws.ay, grid.Vec5(b.u, ojm), -1)
	b.blk.couplingX(&ws.ax, grid.Vec5(b.u, oim), -1)
	b.blk.diagonal(&ws.d, grid.Vec5(b.u, off))

	r := grid.Vec5(b.rsd, off)
	ws.coupledSum(grid.Vec5(b.rsd, okm), grid.Vec5(b.rsd, ojm), grid.Vec5(b.rsd, oim))
	for m := 0; m < 5; m++ {
		ws.tv[m] = r[m] - omega*ws.tv[m]
	}
	solve5(&ws.d, &ws.tv)
	*r = ws.tv
}

// upperPoint applies the upper-triangular update at one grid point.
//
// Hot path: fused jacu+buts point kernel.
func (b *Benchmark) upperPoint(ws *sweepScratch, i, j, k int) {
	off := b.at(i, j, k)
	okp := b.at(i, j, k+1)
	ojp := b.at(i, j+1, k)
	oip := b.at(i+1, j, k)

	b.blk.couplingZ(&ws.az, grid.Vec5(b.u, okp), +1)
	b.blk.couplingY(&ws.ay, grid.Vec5(b.u, ojp), +1)
	b.blk.couplingX(&ws.ax, grid.Vec5(b.u, oip), +1)
	b.blk.diagonal(&ws.d, grid.Vec5(b.u, off))

	r := grid.Vec5(b.rsd, off)
	ws.coupledSum(grid.Vec5(b.rsd, okp), grid.Vec5(b.rsd, ojp), grid.Vec5(b.rsd, oip))
	for m := 0; m < 5; m++ {
		ws.tv[m] *= omega
	}
	solve5(&ws.d, &ws.tv)
	for m := 0; m < 5; m++ {
		r[m] -= ws.tv[m]
	}
}

// coupledSum sets tv = az*rz + ay*ry + ax*rx, the three neighbour
// couplings of one point.
func (ws *sweepScratch) coupledSum(rz, ry, rx *[5]float64) {
	az, ay, ax := &ws.az, &ws.ay, &ws.ax
	for m := 0; m < 5; m++ {
		s := az[m]*rz[0] + ay[m]*ry[0] + ax[m]*rx[0]
		s += az[m+5]*rz[1] + ay[m+5]*ry[1] + ax[m+5]*rx[1]
		s += az[m+10]*rz[2] + ay[m+10]*ry[2] + ax[m+10]*rx[2]
		s += az[m+15]*rz[3] + ay[m+15]*ry[3] + ax[m+15]*rx[3]
		s += az[m+20]*rz[4] + ay[m+20]*ry[4] + ax[m+20]*rx[4]
		ws.tv[m] = s
	}
}

// ensurePipe binds the benchmark to tm and (re)builds the cached
// plane pipeline when the team changes. The team-wired pipeline charges
// per-plane stalls to each worker's probe wait slot and trace timeline —
// the paper's LU scalability culprit, made visible per worker instead
// of folded into run time.
func (b *Benchmark) ensurePipe(tm *team.Team) {
	b.tm = tm
	if b.pipeOwner != tm {
		b.pipe = tm.NewPipeline(b.n)
		b.pipeOwner = tm
	}
}

// Iter runs one timed SSOR istep — residual scaling, the pipelined
// triangular sweeps, the flow-variable update and the rhs
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
	// Both triangular sweeps, pipelined over planes, in one region.
	tm.Run(b.sweepsBody)

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
