package lu

import (
	"npbgo/internal/grid"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

// applyOperator adds the discrete steady-state Navier-Stokes operator
// R(w) to out: central convective flux differences, viscous flux
// differences and fourth-order dissipation in the three directions —
// the common body of lu.f's rhs and erhs routines (which differ only in
// what out starts from and which field they differentiate). The
// operands are staged for the three prebuilt direction bodies, so no
// closure or scratch is allocated per call.
func (b *Benchmark) applyOperator(out, w []float64, tm *team.Team) {
	b.tm, b.opOut, b.opW = tm, out, w
	for _, body := range b.opBodies {
		tm.Run(body)
	}
}

// opDir describes one direction of the operator: the conserved
// component carrying its velocity, where its lines lie in the 5-vector
// fields, and its constants, folded once by newOpDirs in the order
// lu.f's expressions associate, so every product rounds as it does
// there.
type opDir struct {
	cv int // velocity component: 1 (xi), 2 (eta), 3 (zeta)

	// Point l of a line is at base+l*stride. The direction's region
	// splits the outer index over the team and runs a line for each
	// inner index 1..n-2, with base = inner*innerStride + outer*outerStride.
	stride, innerStride, outerStride int

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
		t1, t2, t3                       float64
		d                                [5]float64
		stride, innerStride, outerStride int
	}{
		{c.Tx1, c.Tx2, c.Tx3, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}, 5, 5 * n, 5 * n * n}, // along i; j inner, k split
		{c.Ty1, c.Ty2, c.Ty3, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}, 5 * n, 5, 5 * n * n}, // along j; i inner, k split
		{c.Tz1, c.Tz2, c.Tz3, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}, 5 * n * n, 5, 5 * n}, // along k; i inner, j split
	}
	var ops [3]opDir
	for i, s := range dirs {
		o := &ops[i]
		o.cv = i + 1
		o.stride, o.innerStride, o.outerStride = s.stride, s.innerStride, s.outerStride
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

// operatorPlanes applies direction d's operator terms on every line
// whose outer index lies in [lo, hi) — planes k for xi and eta, rows j
// for zeta — using the worker's flux rows: one worker's share of d's
// applyOperator region.
func (b *Benchmark) operatorPlanes(out, w []float64, flux [][5]float64, d *opDir, lo, hi int) {
	n := b.n
	for o := lo; o < hi; o++ {
		for a := 1; a < n-1; a++ {
			b.operatorLine(out, w, flux, a*d.innerStride+o*d.outerStride, d)
		}
	}
}

// operatorLine adds direction d's terms of R(w) along one grid line to
// out: the central difference of the convective fluxes, the difference
// of the viscous fluxes, the second difference of w and the
// fourth-order dissipation. Point l of the line has its 5-vector at
// base+l*d.stride in out and w; flux is the worker's row per point.
//
// Hot path: every line of every direction, twice per SSOR iteration's
// rhs and once in erhs.
func (b *Benchmark) operatorLine(out, w []float64, flux [][5]float64, base int, d *opDir) {
	c := &b.c
	n := len(flux)
	cv, stride := d.cv, d.stride

	// Convective fluxes at every point, then their central difference.
	for l := range flux {
		wl := grid.Vec5(w, base+l*stride)
		u := wl[cv] / wl[0]
		q := 0.5 * (wl[1]*wl[1] + wl[2]*wl[2] + wl[3]*wl[3]) / wl[0]
		f := &flux[l]
		f[0] = wl[cv]
		f[1] = wl[1] * u
		f[2] = wl[2] * u
		f[3] = wl[3] * u
		f[cv] += c.C2 * (wl[4] - q)
		f[4] = (c.C1*wl[4] - c.C2*q) * u
	}
	for l := 1; l < n-1; l++ {
		o, fm, fp := grid.Vec5(out, base+l*stride), &flux[l-1], &flux[l+1]
		for m := range o {
			o[m] -= d.t2 * (fp[m] - fm[m])
		}
	}

	// Viscous fluxes between points l-1 and l. Each point's velocities
	// and squares are computed once and carried to the next point.
	wl := grid.Vec5(w, base)
	tmp := 1.0 / wl[0]
	pu1, pu2, pu3, pu4 := tmp*wl[1], tmp*wl[2], tmp*wl[3], tmp*wl[4]
	pcv := tmp * wl[cv]
	psq, pcq := pu1*pu1+pu2*pu2+pu3*pu3, pcv*pcv
	for l := 1; l < n; l++ {
		wl := grid.Vec5(w, base+l*stride)
		tmp := 1.0 / wl[0]
		u1, u2, u3, u4 := tmp*wl[1], tmp*wl[2], tmp*wl[3], tmp*wl[4]
		ucv := tmp * wl[cv]
		sq, cq := u1*u1+u2*u2+u3*u3, ucv*ucv
		f := &flux[l]
		f[1] = d.visc[1] * (u1 - pu1)
		f[2] = d.visc[2] * (u2 - pu2)
		f[3] = d.visc[3] * (u3 - pu3)
		f[4] = d.e1*(sq-psq) + d.e2*(cq-pcq) + d.e3*(u4-pu4)
		pu1, pu2, pu3, pu4, psq, pcq = u1, u2, u3, u4, sq, cq
	}

	// Their difference, and the second difference of w.
	wm, wc := grid.Vec5(w, base), grid.Vec5(w, base+stride)
	for l := 1; l < n-1; l++ {
		wp := grid.Vec5(w, base+(l+1)*stride)
		o, f, fp := grid.Vec5(out, base+l*stride), &flux[l], &flux[l+1]
		o[0] += d.d[0] * (wm[0] - 2.0*wc[0] + wp[0])
		for m := 1; m < 5; m++ {
			o[m] += d.t3c34*(fp[m]-f[m]) + d.d[m]*(wm[m]-2.0*wc[m]+wp[m])
		}
		wm, wc = wc, wp
	}

	nscore.Dissip(out, w, n, c.Dssp, base, stride)
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
