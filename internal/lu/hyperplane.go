package lu

import (
	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// Hyperplane-scheduled SSOR sweeps: the alternative to pipelining that
// the NPB distribution ships as LU-HP. Points on the diagonal wavefront
// i+j+k = l depend only on points of wavefront l-1 (l+1 for the upper
// sweep), so each wavefront is embarrassingly parallel at the cost of a
// full barrier per wavefront and strided memory access. Both schedules
// compute bitwise-identical results; the ablation benchmark contrasts
// their overheads, which is the design choice behind the paper's LU
// scalability discussion.

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

// lowerSweepHyperplane runs the lower sweep over increasing wavefronts
// i+j+k = l, each a complete parallel region (one barrier per front).
func (b *Benchmark) lowerSweepHyperplane(tm *team.Team) {
	n := b.n
	for l := 3; l <= 3*(n-2); l++ {
		tm.Run(func(id int) {
			ws := b.scratch[id]
			jlo, jhi := team.Block(1, n-1, tm.Size(), id)
			for j := jlo; j < jhi; j++ {
				for k := 1; k < n-1; k++ {
					i := l - j - k
					if i >= 1 && i <= n-2 {
						b.lowerPoint(ws, i, j, k)
					}
				}
			}
		})
	}
}

// upperSweepHyperplane runs the upper sweep over decreasing wavefronts.
func (b *Benchmark) upperSweepHyperplane(tm *team.Team) {
	n := b.n
	for l := 3 * (n - 2); l >= 3; l-- {
		tm.Run(func(id int) {
			ws := b.scratch[id]
			jlo, jhi := team.Block(1, n-1, tm.Size(), id)
			for j := jlo; j < jhi; j++ {
				for k := 1; k < n-1; k++ {
					i := l - j - k
					if i >= 1 && i <= n-2 {
						b.upperPoint(ws, i, j, k)
					}
				}
			}
		})
	}
}
