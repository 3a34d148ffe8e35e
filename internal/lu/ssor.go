package lu

import (
	"time"

	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// lowerRow performs the fused jacld+blts update for row j of plane k:
// the row's blocks first, then for each interior i the k-1, j-1 and i-1
// couplings applied and the diagonal block solved.
func (b *Benchmark) lowerRow(ws *sweepScratch, j, k int) {
	b.rowBlocks(ws, j, k, -1)
	for i := 1; i < b.n-1; i++ {
		b.lowerPoint(ws, i, j, k)
	}
}

// upperRow performs the fused jacu+buts update for row j of plane k,
// sweeping i downward.
func (b *Benchmark) upperRow(ws *sweepScratch, j, k int) {
	b.rowBlocks(ws, j, k, +1)
	for i := b.n - 2; i >= 1; i-- {
		b.upperPoint(ws, i, j, k)
	}
}

// rowBlocks builds the blocks of every interior point of row j of
// plane k, four consecutive i per lane kernel call: the couplings to
// the neighbours at k+s, j+s and i+s (s = -1 for the lower sweep, +1
// for the upper one) and the diagonal block, factored. They read only
// u, which the sweeps do not write, so the whole row's blocks can be
// built ahead of its dependent chain. Every state is gathered before
// any kernel runs: a kernel that loads a lane-form state right after
// its 8-byte stores waits for them, the core cannot forward them to
// one 32-byte load. The spare lanes of the last group repeat i = n-2.
func (b *Benchmark) rowBlocks(ws *sweepScratch, j, k, s int) {
	n := b.n
	u0, u1, u2, u3, u4 := nscore.Components(&b.u)
	d := ws.d
	a, states := ws.a[:len(d)], ws.u[:len(d)]
	for g := range states {
		for q := 0; q < 4; q++ {
			p := b.at(min(1+4*g+q, n-2), j, k)
			for m, o := range [4]int{p + s*n*n, p + s*n, p + s, p} {
				st := &states[g][m]
				st[0][q], st[1][q], st[2][q], st[3][q], st[4][q] = u0[o], u1[o], u2[o], u3[o], u4[o]
			}
		}
	}
	bk, sign := &b.blk, float64(s)
	z, y, x := &bk.z, &bk.y, &bk.x
	for g := range d {
		ag, st := &a[g], &states[g]
		couplingZ4(&ag[0], &st[0], sign*z.c2, z.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, z.d[0], z.d[1], z.d[2], z.d[3], z.d[4])
		couplingY4(&ag[1], &st[1], sign*y.c2, y.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, y.d[0], y.d[1], y.d[2], y.d[3], y.d[4])
		couplingX4(&ag[2], &st[2], sign*x.c2, x.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, x.d[0], x.d[1], x.d[2], x.d[3], x.d[4])
		diagonal4(&d[g], &st[3], bk.kd[1], bk.kd[2], bk.kd[3], bk.km[1], bk.km[2], bk.km[3], bk.te,
			bk.e[0], bk.e[1], bk.e[2], bk.e[3], bk.e[4])
		factor54(&d[g])
	}
}

// lowerPoint applies the lower-triangular update at one grid point,
// with the blocks rowBlocks built.
//
// Hot path: fused jacld+blts point kernel.
func (b *Benchmark) lowerPoint(ws *sweepScratch, i, j, k int) {
	n, p := b.n, b.at(i, j, k)
	g, q := (i-1)/4, (i-1)%4
	r0, r1, r2, r3, r4 := nscore.Components(&b.rsd)
	ws.coupledSum(&b.rsd, g, q, p-n*n, p-n, p-1)
	tv := &ws.tv
	tv[0] = r0[p] - omega*tv[0]
	tv[1] = r1[p] - omega*tv[1]
	tv[2] = r2[p] - omega*tv[2]
	tv[3] = r3[p] - omega*tv[3]
	tv[4] = r4[p] - omega*tv[4]
	apply5(&ws.d[g], q, tv)
	r0[p], r1[p], r2[p], r3[p], r4[p] = tv[0], tv[1], tv[2], tv[3], tv[4]
}

// upperPoint applies the upper-triangular update at one grid point.
//
// Hot path: fused jacu+buts point kernel.
func (b *Benchmark) upperPoint(ws *sweepScratch, i, j, k int) {
	n, p := b.n, b.at(i, j, k)
	g, q := (i-1)/4, (i-1)%4
	r0, r1, r2, r3, r4 := nscore.Components(&b.rsd)
	ws.coupledSum(&b.rsd, g, q, p+n*n, p+n, p+1)
	tv := &ws.tv
	for m := 0; m < 5; m++ {
		tv[m] *= omega
	}
	apply5(&ws.d[g], q, tv)
	r0[p] -= tv[0]
	r1[p] -= tv[1]
	r2[p] -= tv[2]
	r3[p] -= tv[3]
	r4[p] -= tv[4]
}

// coupledSum sets tv = az*r[z] + ay*r[y] + ax*r[x], the couplings of
// the point in lane q of group g to its neighbours at the points z, y
// and x of r.
func (ws *sweepScratch) coupledSum(r *[5][]float64, g, q, z, y, x int) {
	r0, r1, r2, r3, r4 := nscore.Components(r)
	rz := [5]float64{r0[z], r1[z], r2[z], r3[z], r4[z]}
	ry := [5]float64{r0[y], r1[y], r2[y], r3[y], r4[y]}
	rx := [5]float64{r0[x], r1[x], r2[x], r3[x], r4[x]}
	a := &ws.a[g]
	az, ay, ax := &a[0], &a[1], &a[2]
	q &= 3
	for m := 0; m < 5; m++ {
		s := az[m][q]*rz[0] + ay[m][q]*ry[0] + ax[m][q]*rx[0]
		s += az[m+5][q]*rz[1] + ay[m+5][q]*ry[1] + ax[m+5][q]*rx[1]
		s += az[m+10][q]*rz[2] + ay[m+10][q]*ry[2] + ax[m+10][q]*rx[2]
		s += az[m+15][q]*rz[3] + ay[m+15][q]*ry[3] + ax[m+15][q]*rx[3]
		s += az[m+20][q]*rz[4] + ay[m+20][q]*ry[4] + ax[m+20][q]*rx[4]
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

	start := time.Now()
	for istep := 1; istep <= b.itmax && !tm.Cancelled(); istep++ {
		b.Iter(tm)
	}
	return time.Since(start)
}
