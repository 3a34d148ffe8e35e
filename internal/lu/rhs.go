package lu

import (
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

//go:generate go run ../lanegen

// applyOperator adds the discrete steady-state Navier-Stokes operator
// R(w) to out: central convective flux differences, viscous flux
// differences and fourth-order dissipation in the three directions —
// the common body of lu.f's rhs and erhs routines (which differ only in
// what out starts from and which field they differentiate). The sums
// run in component-major rows, four points per instruction
// (kernels.go): the xi region copies w and out into wc and oc plane by
// plane, and the zeta region, the last to add to a point, copies oc's
// interior back. Each element of out takes its terms in lu.f's order,
// so the result is lu.f's to the bit. The operands are staged for the
// three prebuilt direction bodies, so no closure or scratch is
// allocated per call.
func (b *Benchmark) applyOperator(out, w []float64, tm *team.Team) {
	b.tm, b.opOut, b.opW = tm, out, w
	for _, body := range b.opBodies {
		tm.Run(body)
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

// loadPlane copies plane k of w, and of out when withOut is set, into
// the component-major rows wc and oc, and sets the plane's velocities.
func (b *Benchmark) loadPlane(k int, withOut bool) {
	n := b.n
	lo, hi := n*n*k, n*n*(k+1)
	w, out := b.opW[5*lo:5*hi], b.opOut[5*lo:5*hi]
	w0, w1, w2, w3, w4 := b.wc[0][lo:hi], b.wc[1][lo:hi], b.wc[2][lo:hi], b.wc[3][lo:hi], b.wc[4][lo:hi]
	for p := range w0 {
		q := (*[5]float64)(w[5*p:])
		w0[p], w1[p], w2[p], w3[p], w4[p] = q[0], q[1], q[2], q[3], q[4]
	}
	if withOut {
		o0, o1, o2, o3, o4 := b.oc[0][lo:hi], b.oc[1][lo:hi], b.oc[2][lo:hi], b.oc[3][lo:hi], b.oc[4][lo:hi]
		for p := range o0 {
			q := (*[5]float64)(out[5*p:])
			o0[p], o1[p], o2[p], o3[p], o4[p] = q[0], q[1], q[2], q[3], q[4]
		}
	}
	v := &b.vel
	opVelRow(v[0][lo:hi], v[1][lo:hi], v[2][lo:hi], v[3][lo:hi], v[4][lo:hi], w0, w1, w2, w3, w4)
}

// fluxes sets direction d's convective fluxes at the points [lo, hi)
// and its viscous energy flux at those of [vlo, hi), whose lower
// neighbours are set too.
func (b *Benchmark) fluxes(d *opDir, lo, hi, vlo int) {
	w, f, v := &b.wc, &b.flux, &b.vel
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

// update adds direction d's terms of R to oc at every interior point
// of planes [klo, khi), component by component, each after its
// dissipation term. The rows run over the planes' interior rows whole,
// from point (0,1,klo) to (n-1,n-2,khi-1): the boundary points at their
// ends, and the boundary rows between two planes, get values nobody
// reads, as the interior alone goes back to out.
func (b *Benchmark) update(d *opDir, klo, khi int) {
	n := b.n
	if klo >= khi {
		return
	}
	lo, hi := n*(n*klo+1), n*(n*(khi-1)+n-1)
	at := func(x []float64, o int) []float64 { return x[lo+o*d.s : hi+o*d.s] }
	dis := b.dis[lo:hi]
	for m, w := range b.wc {
		for k := klo; k < khi; k++ {
			nscore.PlaneDissipation(b.dis, w, k, n, d.cv-1, b.c.Dssp)
		}
		o := b.oc[m][lo:hi]
		switch m {
		case 0:
			mv := b.wc[d.cv]
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

// storePlane copies the interior of plane k of oc back to out.
func (b *Benchmark) storePlane(k int) {
	n := b.n
	for j := 1; j < n-1; j++ {
		lo, hi := n*(j+n*k)+1, n*(j+n*k)+n-1
		out := b.opOut[5*lo : 5*hi]
		o0, o1, o2, o3, o4 := b.oc[0][lo:hi], b.oc[1][lo:hi], b.oc[2][lo:hi], b.oc[3][lo:hi], b.oc[4][lo:hi]
		for p := range o0 {
			q := (*[5]float64)(out[5*p:])
			q[0], q[1], q[2], q[3], q[4] = o0[p], o1[p], o2[p], o3[p], o4[p]
		}
	}
}

// rhs computes the steady-state residual rsd = R(u) - frct (lu.f's rhs).
func (b *Benchmark) rhs(tm *team.Team) {
	b.tm = tm
	tm.Run(b.rhsInitBody)
	b.applyOperator(b.rsd, b.u, tm)
}

// erhs computes the forcing frct = R(u_exact), using rsd as scratch for
// the exact-solution field exactly as lu.f's erhs does.
func (b *Benchmark) erhs(tm *team.Team) {
	n := b.n
	for i := range b.frct {
		b.frct[i] = 0
	}
	var ue [5]float64
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b.exactAt(i, j, k, &ue)
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					b.rsd[off+m] = ue[m]
				}
			}
		}
	}
	b.applyOperator(b.frct, b.rsd, tm)
}
