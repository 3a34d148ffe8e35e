package lu

import (
	"time"

	"npbgo/internal/nscore"
	"npbgo/internal/simd"
	"npbgo/internal/team"
)

// wave is one group of a worker's wavefront schedule (newWaves): up to
// eight interior points of its band of one plane, by their in-plane
// offsets i + n*j, none of them the i-1 or j-1 neighbour of another, so
// each lane of a kernel runs one point. The lanes from live to 7 repeat
// the last point.
type wave struct {
	at   [8]int32
	live int32
}

// newWaves returns the wavefront schedule of rows jlo to jhi-1 of an
// n-point plane: the band's interior points in the order of i+j, then
// j, cut into waves of at most eight, a new one begun wherever the next
// point would join its i-1 or j-1 neighbour. Every point's lower-sweep
// neighbours in the plane come before it in that order, so each sits in
// an earlier wave; run backwards, the waves meet the upper sweep's i+1
// and j+1 neighbours the same way.
func newWaves(n, jlo, jhi int) []wave {
	var waves []wave
	var w wave
	has := func(o int32) bool {
		for _, a := range w.at[:w.live] {
			if a == o {
				return true
			}
		}
		return false
	}
	flush := func() {
		if w.live == 0 {
			return
		}
		for q := w.live; q < 8; q++ {
			w.at[q] = w.at[w.live-1]
		}
		waves = append(waves, w)
		w = wave{}
	}
	for s := 2; s <= 2*(n-2); s++ {
		for j := max(jlo, s-(n-2)); j <= min(jhi-1, s-1); j++ {
			o := int32(s - j + n*j)
			if w.live == 8 || has(o-1) || has(o-int32(n)) {
				flush()
			}
			w.at[w.live] = o
			w.live++
		}
	}
	flush()
	return waves
}

// sweepWave performs the fused jacld+blts update (s = -1) or jacu+buts
// update (s = +1) at the points of wave w of plane k: their blocks
// first, then rsd at the points and their neighbours at k+s, j+s and
// i+s gathered into lane form, lowerStep or upperStep run on it, a lane
// a point, and the points' results scattered back.
//
// Hot path: LU's SSOR sweeps.
func (b *Benchmark) sweepWave(ws *sweepScratch, w *wave, k, s int) {
	b.waveBlocks(ws, w, k, s)
	n, live := b.n, int(w.live)
	r0, r1, r2, r3, r4 := nscore.Components(&b.rsd)
	plane := n * n * k
	rv := &ws.r
	for q, a := range w.at[:lanesOf(live)] {
		p := plane + int(a)
		for m, o := range [4]int{p, p + s*n*n, p + s*n, p + s} {
			v := &rv[m]
			v[0][q], v[1][q], v[2][q], v[3][q], v[4][q] = r0[o], r1[o], r2[o], r3[o], r4[o]
		}
	}
	if s < 0 {
		lowerStep8(live, &rv[0], &ws.a[0], &ws.a[1], &ws.a[2], &ws.d, &rv[1], &rv[2], &rv[3], omega)
	} else {
		upperStep8(live, &rv[0], &ws.a[0], &ws.a[1], &ws.a[2], &ws.d, &rv[1], &rv[2], &rv[3], omega)
	}
	v := &rv[0]
	for q, a := range w.at[:live] {
		p := plane + int(a)
		r0[p], r1[p], r2[p], r3[p], r4[p] = v[0][q], v[1][q], v[2][q], v[3][q], v[4][q]
	}
}

// lanesOf is the lanes a wave of live points gathers, those its
// kernels run: live rounded up to a multiple of the narrowest
// assembly's four lanes (four when a 4-lane kernel runs the wave alone,
// else eight), or at width 1, where the scalar bodies run only the live
// lanes, to a multiple of one.
func lanesOf(live int) int {
	g := min(simd.Width, 4)
	return (live + g - 1) &^ (g - 1)
}

// waveBlocks builds the blocks of wave w's points in plane k: the
// couplings to the neighbours at k+s, j+s and i+s and the diagonal
// block, factored (diagonal). They read only u, which the sweeps do not write.
// Every state is gathered before any kernel runs.
func (b *Benchmark) waveBlocks(ws *sweepScratch, w *wave, k, s int) {
	n, live := b.n, int(w.live)
	u0, u1, u2, u3, u4 := nscore.Components(&b.u)
	plane := n * n * k
	for q, a := range w.at[:lanesOf(live)] {
		p := plane + int(a)
		for m, o := range [4]int{p + s*n*n, p + s*n, p + s, p} {
			st := &ws.u[m]
			st[0][q], st[1][q], st[2][q], st[3][q], st[4][q] = u0[o], u1[o], u2[o], u3[o], u4[o]
		}
	}
	bk, sign, st := &b.blk, float64(s), &ws.u
	z, y, x := &bk.z, &bk.y, &bk.x
	couplingZ8(live, &ws.a[0], &st[0], sign*z.c2, z.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, z.d[0], z.d[1], z.d[2], z.d[3], z.d[4])
	couplingY8(live, &ws.a[1], &st[1], sign*y.c2, y.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, y.d[0], y.d[1], y.d[2], y.d[3], y.d[4])
	couplingX8(live, &ws.a[2], &st[2], sign*x.c2, x.c1, bk.c1, bk.c2, bk.r43, bk.c34, bk.m43, bk.m34, bk.c1345, x.d[0], x.d[1], x.d[2], x.d[3], x.d[4])
	diagonal8(live, &ws.d, &st[3], bk.kd[1], bk.kd[2], bk.kd[3], bk.km[1], bk.km[2], bk.km[3], bk.te,
		bk.e[0], bk.e[1], bk.e[2], bk.e[3], bk.e[4])
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
