package lu

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

//go:generate go run ../lanegen

// applyOperator sets out to −neg (to zero when neg is nil) and adds the
// discrete steady-state Navier-Stokes operator R(w): central convective
// flux differences, viscous flux differences and fourth-order
// dissipation in the three directions — the common body of lu.f's rhs
// and erhs routines (which differ only in what out starts from and
// which field they differentiate). The sums run along the rows, four
// points per instruction (kernels.go). Each element of out takes its
// terms in lu.f's order, so the result is lu.f's to the bit. The
// operands are staged for the prebuilt region body, so no closure or
// scratch is allocated per call.
func (b *Benchmark) applyOperator(out, w, neg *[5][]float64, tm *team.Team) {
	b.tm, b.opOut, b.opW, b.opNeg = tm, out, w, neg
	tm.Run(b.opBody)
}

// buildOperator constructs applyOperator's region: its xi, eta and zeta
// directions over the staged operands, each split over k planes, with a
// barrier after each of the first two. Only the zeta terms reach across
// planes, so whatever they read is set before a barrier: xi starts out
// and sets the velocities on the planes it owns (and on the boundary
// planes with the first and last), eta sets the zeta fluxes, which read
// the velocities of the plane below, after its own update of a plane,
// and zeta, the last to add to a point, starts out again at the
// boundary points its updates ran over, which the sweeps read.
func (b *Benchmark) buildOperator() {
	n := b.n
	xi, eta, zeta := &b.ops[0], &b.ops[1], &b.ops[2]
	b.opBody = func(id int) {
		tm := b.tm
		for it := tm.Loop(id, 1, n-1); it.Next(); {
			if it.Lo == it.Hi {
				continue // an empty block may sit at either end
			}
			lo, hi := n*n*it.Lo, n*n*it.Hi
			if it.Lo == 1 {
				lo = 0
			}
			if it.Hi == n-1 {
				hi = n * n * n
			}
			b.start(lo, hi)
			v0, v1, v2, v3, v4 := nscore.Components(&b.vel)
			w0, w1, w2, w3, w4 := nscore.Components(b.opW)
			opVelRow(v0[lo:hi], v1[lo:hi], v2[lo:hi], v3[lo:hi], v4[lo:hi], w0[lo:hi], w1[lo:hi], w2[lo:hi], w3[lo:hi], w4[lo:hi])
			b.planeFluxes(xi, it.Lo, it.Hi)
			b.update(xi, it.Lo, it.Hi)
		}
		tm.BarrierID(id)
		for it := tm.Loop(id, 1, n-1); it.Next(); {
			b.planeFluxes(eta, it.Lo, it.Hi)
			b.update(eta, it.Lo, it.Hi)
			if it.Lo == it.Hi {
				continue
			}
			b.planeFluxes(zeta, it.Lo, it.Hi)
			if it.Lo == 1 {
				b.planeFluxes(zeta, 0, 1)
			}
			if it.Hi == n-1 {
				b.planeFluxes(zeta, n-1, n)
			}
		}
		tm.BarrierID(id)
		for it := tm.Loop(id, 1, n-1); it.Next(); {
			b.update(zeta, it.Lo, it.Hi)
			for k := it.Lo; k < it.Hi; k++ {
				lo, hi := n*n*k, n*n*(k+1)
				b.start(lo, lo+n+1) // row 0 and (0,1)
				for p := lo + 2*n - 1; p < hi-n-1; p += n {
					b.start(p, p+2) // (n-1,j) and (0,j+1)
				}
				b.start(hi-n-1, hi) // (n-1,n-2) and row n-1
			}
		}
	}
}

// start sets out at the points [lo, hi) to −neg, or to zero when neg
// is nil.
func (b *Benchmark) start(lo, hi int) {
	for m, o := range b.opOut {
		o := o[lo:hi]
		if b.opNeg == nil {
			clear(o)
			continue
		}
		for p, v := range b.opNeg[m][lo:hi] {
			o[p] = -v
		}
	}
}

// opDir describes one direction of the operator: the conserved
// component carrying its velocity, its stride in the component-major
// rows, and its constants, folded once by newOpDirs in the order lu.f's
// expressions associate, so every product rounds as it does there.
type opDir struct {
	cv, s int // velocity component: 1 (xi), 2 (eta), 3 (zeta); stride 1, n, n²

	t2         float64    // t?2: convective flux difference
	visc       [4]float64 // [1..3]: momentum viscous flux, (4/3)·t?3 on cv, t?3 elsewhere
	e1, e2, e3 float64    // energy viscous flux: 0.5·(1−c1c5)·t?3, (1/6)·t?3, c1c5·t?3
	t3c34      float64    // t?3·c3·c4: viscous flux difference
	d          [5]float64 // d?m·t?1: second difference of w
}

// newOpDirs folds the operator constants of the xi, eta and zeta
// directions on an n^3 grid.
func newOpDirs(c *nscore.Consts, n int) [3]opDir {
	dirs := [3]struct {
		t1, t2, t3 float64
		d          [5]float64
		s          int
	}{
		{c.Tx1, c.Tx2, c.Tx3, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}, 1},
		{c.Ty1, c.Ty2, c.Ty3, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}, n},
		{c.Tz1, c.Tz2, c.Tz3, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}, n * n},
	}
	var ops [3]opDir
	for i, s := range dirs {
		o := &ops[i]
		o.cv, o.s = i+1, s.s
		o.t2 = s.t2
		o.visc = [4]float64{0, s.t3, s.t3, s.t3}
		o.visc[o.cv] = (4.0 / 3.0) * s.t3
		o.e1 = 0.5 * (1.0 - c.C1c5) * s.t3
		o.e2 = (1.0 / 6.0) * s.t3
		o.e3 = c.C1c5 * s.t3
		o.t3c34 = s.t3 * c.C3 * c.C4
		for m := range o.d {
			o.d[m] = s.d[m] * s.t1
		}
	}
	return ops
}

// fluxes sets direction d's convective fluxes at the points [lo, hi)
// and its viscous energy flux at those of [vlo, hi), whose lower
// neighbours are set too.
func (b *Benchmark) fluxes(d *opDir, lo, hi, vlo int) {
	w, f, v := b.opW, &b.flux, &b.vel
	across := [3][2]int{{2, 3}, {1, 3}, {1, 2}}[d.cv-1] // the momenta across the direction
	x, y := across[0], across[1]
	opFluxRow(f[d.cv-1][lo:hi], f[x-1][lo:hi], f[y-1][lo:hi], f[3][lo:hi],
		w[0][lo:hi], w[1][lo:hi], w[2][lo:hi], w[3][lo:hi], w[4][lo:hi], w[d.cv][lo:hi], w[x][lo:hi], w[y][lo:hi],
		b.c.C1, b.c.C2)
	if vlo < hi {
		s, va := d.s, v[d.cv-1]
		opVisc4Row(b.visc4[vlo:hi], v[4][vlo:hi], v[4][vlo-s:hi-s], va[vlo:hi], va[vlo-s:hi-s],
			v[3][vlo:hi], v[3][vlo-s:hi-s], d.e1, d.e2, d.e3)
	}
}

// update adds direction d's terms of R to out at every interior point
// of planes [klo, khi), component by component, each after its
// dissipation term. The rows run over the planes' interior rows whole,
// from point (0,1,klo) to (n-1,n-2,khi-1): the boundary points at their
// ends, and the boundary rows between two planes, get values nobody
// reads, as the zeta region starts them again.
func (b *Benchmark) update(d *opDir, klo, khi int) {
	n := b.n
	if klo >= khi {
		return
	}
	lo, hi := n*(n*klo+1), n*(n*(khi-1)+n-1)
	at := func(x []float64, o int) []float64 { return x[lo+o*d.s : hi+o*d.s] }
	dis := b.dis[lo:hi]
	for m, w := range b.opW {
		for k := klo; k < khi; k++ {
			nscore.PlaneDissipation(b.dis, w, k, n, d.cv-1, b.c.Dssp)
		}
		o := b.opOut[m][lo:hi]
		switch m {
		case 0:
			mv := b.opW[d.cv]
			opRhoRow(o, dis, at(mv, 1), at(mv, -1), at(w, -1), at(w, 0), at(w, 1), d.t2, d.d[0])
		case 4:
			f := b.flux[3]
			opEnergyRow(o, dis, at(f, 1), at(f, -1), at(b.visc4, 1), at(b.visc4, 0), at(w, -1), at(w, 0), at(w, 1),
				d.t2, d.t3c34, d.d[4])
		default:
			f, v := b.flux[m-1], b.vel[m-1]
			opMomRow(o, dis, at(f, 1), at(f, -1), at(v, 1), at(v, 0), at(v, -1), at(w, -1), at(w, 0), at(w, 1),
				d.t2, d.visc[m], d.t3c34, d.d[m])
		}
	}
}

// planeFluxes sets direction d's fluxes at every point of planes
// [klo, khi): the viscous energy flux needs the lower neighbour, inside
// the plane along xi and eta, on the plane below along zeta (none for
// plane 0).
func (b *Benchmark) planeFluxes(d *opDir, klo, khi int) {
	n := b.n
	lo, hi := n*n*klo, n*n*khi
	vlo := lo + d.s
	if d.cv == 3 && klo > 0 {
		vlo = lo
	}
	b.fluxes(d, lo, hi, vlo)
}

// rhs computes the steady-state residual rsd = R(u) - frct (lu.f's rhs).
func (b *Benchmark) rhs(tm *team.Team) {
	b.applyOperator(&b.rsd, &b.u, &b.frct, tm)
}

// erhs computes the forcing frct = R(u_exact), using rsd as scratch for
// the exact-solution field exactly as lu.f's erhs does.
func (b *Benchmark) erhs(tm *team.Team) {
	n := b.n
	var ue [5]float64
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b.exactAt(i, j, k, &ue)
				p := b.at(i, j, k)
				for m, r := range &b.rsd {
					r[p] = ue[m]
				}
			}
		}
	}
	b.applyOperator(&b.frct, &b.rsd, nil, tm)
}
