package sp

import (
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/grid"
	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/rowcheck"
	"npbgo/internal/team"
)

func TestSolveFactorAgainstDenseSolve(t *testing.T) {
	// The scalar pentadiagonal Thomas algorithm (no pivoting) must match
	// a dense solve on a diagonally dominant system with identity
	// boundary rows, the exact shape produced by buildLHS.
	rng := rand.New(rand.NewSource(7))
	const n = 9
	for trial := 0; trial < 25; trial++ {
		bands := make([]float64, 5*n)
		for i := 1; i < n-1; i++ {
			for bd := 0; bd < 5; bd++ {
				*band(bands, bd, i) = 0.3 * (rng.Float64() - 0.5)
			}
			*band(bands, 2, i) += 2.5
		}
		*band(bands, 2, 0) = 1
		*band(bands, 2, n-1) = 1
		// Boundary rows have only the diagonal; zero the rest.
		for _, i := range [2]int{0, n - 1} {
			*band(bands, 0, i) = 0
			*band(bands, 1, i) = 0
			*band(bands, 3, i) = 0
			*band(bands, 4, i) = 0
		}
		rhs := make([]float64, 5*n)
		dense := make([]float64, n*n)
		vec := make([]float64, n)
		for i := 0; i < n; i++ {
			rhs[5*i] = rng.Float64()
			vec[i] = rhs[5*i]
			for bd := 0; bd < 5; bd++ {
				col := i + bd - 2
				if col >= 0 && col < n {
					dense[i*n+col] = *band(bands, bd, i)
				}
			}
		}
		want := denseSolve(dense, vec, n)
		solveFactor(bands, n, []int{0}, rhs, 0, 5)
		for i := 0; i < n; i++ {
			if math.Abs(rhs[5*i]-want[i]) > 1e-9 {
				t.Fatalf("trial %d cell %d: %v vs %v", trial, i, rhs[5*i], want[i])
			}
		}
	}
}

// band returns a pointer into a packed band array: coefficient band
// (0..4) of cell i. Only the oracle below uses the packed layout.
func band(a []float64, b, i int) *float64 { return &a[b+5*i] }

// solveFactor is the one-factor-at-a-time Thomas solve solveLine
// replaced, kept as its oracle: the scalar pentadiagonal Thomas
// algorithm on one factor's packed bands, transforming in place the
// components comps of the rhs 5-vectors at rhs[base+l*stride:].
func solveFactor(bands []float64, n int, comps []int, rhs []float64, base, stride int) {
	for i := 0; i <= n-3; i++ {
		i1, i2 := i+1, i+2
		fac1 := 1.0 / *band(bands, 2, i)
		*band(bands, 3, i) *= fac1
		*band(bands, 4, i) *= fac1
		ri := rhs[base+i*stride:]
		for _, m := range comps {
			ri[m] *= fac1
		}
		r1 := rhs[base+i1*stride:]
		b1 := *band(bands, 1, i1)
		*band(bands, 2, i1) -= b1 * *band(bands, 3, i)
		*band(bands, 3, i1) -= b1 * *band(bands, 4, i)
		for _, m := range comps {
			r1[m] -= b1 * ri[m]
		}
		r2 := rhs[base+i2*stride:]
		b0 := *band(bands, 0, i2)
		*band(bands, 1, i2) -= b0 * *band(bands, 3, i)
		*band(bands, 2, i2) -= b0 * *band(bands, 4, i)
		for _, m := range comps {
			r2[m] -= b0 * ri[m]
		}
	}
	// The last two rows.
	i := n - 2
	i1 := n - 1
	fac1 := 1.0 / *band(bands, 2, i)
	*band(bands, 3, i) *= fac1
	*band(bands, 4, i) *= fac1
	ri := rhs[base+i*stride:]
	for _, m := range comps {
		ri[m] *= fac1
	}
	r1 := rhs[base+i1*stride:]
	b1 := *band(bands, 1, i1)
	*band(bands, 2, i1) -= b1 * *band(bands, 3, i)
	*band(bands, 3, i1) -= b1 * *band(bands, 4, i)
	for _, m := range comps {
		r1[m] -= b1 * ri[m]
	}
	fac2 := 1.0 / *band(bands, 2, i1)
	for _, m := range comps {
		r1[m] *= fac2
	}
	// Back substitution.
	ri = rhs[base+(n-2)*stride:]
	r1 = rhs[base+(n-1)*stride:]
	for _, m := range comps {
		ri[m] -= *band(bands, 3, n-2) * r1[m]
	}
	for i := n - 3; i >= 0; i-- {
		r := rhs[base+i*stride:]
		rp1 := rhs[base+(i+1)*stride:]
		rp2 := rhs[base+(i+2)*stride:]
		for _, m := range comps {
			r[m] -= *band(bands, 3, i)*rp1[m] + *band(bands, 4, i)*rp2[m]
		}
	}
}

// TestSolveLineMatchesFactorOracle holds solveLine to three solveFactor
// calls (convective factor on components 0-2, acoustic factors on 3 and
// 4) on diagonally dominant random bands, for line lengths from the
// shortest the elimination allows to class W's, and for the rhs strides
// of the three sweep directions. Every rhs element — those between the
// line's 5-vectors included — and every band must agree bit for bit.
func TestSolveLineMatchesFactorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{5, 6, 12, 36} {
		for _, stride := range []int{5, 5 * n, 5 * n * n} {
			const base = 5
			var flat [3][]float64
			var rows [3][][5]float64
			for f := range flat {
				flat[f] = make([]float64, 5*n)
				rows[f] = make([][5]float64, n)
				for i := 0; i < n; i++ {
					for bd := 0; bd < 5; bd++ {
						v := rng.Float64() - 0.5
						if bd == 2 {
							v += 2.5
						}
						*band(flat[f], bd, i) = v
						rows[f][i][bd] = v
					}
				}
			}
			want := make([]float64, base+(n-1)*stride+5)
			for e := range want {
				want[e] = rng.Float64() - 0.5
			}
			got := append([]float64(nil), want...)

			solveFactor(flat[0], n, []int{0, 1, 2}, want, base, stride)
			solveFactor(flat[1], n, []int{3}, want, base, stride)
			solveFactor(flat[2], n, []int{4}, want, base, stride)
			solveLine(rows[0], rows[1], rows[2], got, base, stride)

			for e := range want {
				if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
					t.Fatalf("n=%d stride=%d: rhs[%d] = %v, oracle %v", n, stride, e, got[e], want[e])
				}
			}
			for f := range flat {
				for i := 0; i < n; i++ {
					for bd := 0; bd < 5; bd++ {
						if g, w := rows[f][i][bd], *band(flat[f], bd, i); math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("n=%d stride=%d: factor %d band %d of row %d = %v, oracle %v", n, stride, f, bd, i, g, w)
						}
					}
				}
			}
		}
	}
}

func denseSolve(a []float64, b []float64, n int) []float64 {
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[p*n+col]) {
				p = r
			}
		}
		if p != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[p*n+c] = a[p*n+c], a[col*n+c]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / piv
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= a[r*n+c] * x[c]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}

func TestErrorDecreasesOverSteps(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.F.Initialize(&b.C)
	b.F.ExactRHS(&b.C)
	e0 := b.F.ErrorNorm(&b.C)
	for s := 0; s < 30; s++ {
		b.Iter(tm)
	}
	e1 := b.F.ErrorNorm(&b.C)
	for m := 0; m < 5; m++ {
		if e1[m] >= e0[m] {
			t.Fatalf("component %d error grew: %v -> %v", m, e0[m], e1[m])
		}
	}
	for _, u := range &b.F.U {
		for _, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("field blew up")
			}
		}
	}
}

// TestParallelMatchesSerialBitwise: every factor solve writes its own
// rhs line, the transforms are pointwise, and ComputeRHS (shared with BT)
// orders its loops with barriers where ownership changes, so the field
// after five ADI steps must be bit-identical for every team size and
// every loop schedule, thirteen threads (more than class S's ten
// interior planes, so some workers get none) included.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	run := func(threads int, sched team.Schedule) [5][]float64 {
		b, _ := New('S', threads, kernel.Env{})
		tm := team.New(threads, team.WithSchedule(sched))
		defer tm.Close()
		b.F.Initialize(&b.C)
		b.F.ExactRHS(&b.C)
		for s := 0; s < 5; s++ {
			b.Iter(tm)
		}
		return b.F.U
	}
	want := run(1, team.Static)
	for _, threads := range []int{1, 2, 3, 4, 7, 13} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
			got := run(threads, sched)
			for m := range want {
				for i := range want[m] {
					if got[m][i] != want[m][i] {
						t.Fatalf("u%d[%d] at %d threads under %s differs from serial: %v vs %v",
							m, i, threads, sched, got[m][i], want[m][i])
					}
				}
			}
		}
	}
}

func TestClassSRun(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	res := b.RunResult()
	if res.Verify.Failed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	for m := 0; m < 5; m++ {
		if math.IsNaN(res.XCR[m]) || math.IsNaN(res.XCE[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
}

// The scalar solver the lane kernels replaced, kept as their oracle:
// fillEigenRows, buildLHS and solveLine solve one line at a time, and
// the four transforms are separate passes over Rhs.

// lineScratch is the storage of one scalar line solve: the three
// factors' band rows (row i holds the five bands of cell i) plus the
// eigenvalue rows.
type lineScratch struct {
	lhs, lhsp, lhsm [][5]float64
	cv, rho         []float64
}

func newLineScratch(n int) *lineScratch {
	return &lineScratch{
		lhs:  make([][5]float64, n),
		lhsp: make([][5]float64, n),
		lhsm: make([][5]float64, n),
		cv:   make([]float64, n),
		rho:  make([]float64, n),
	}
}

// fillEigenRows loads the line's convective velocity cv and spectral
// bound rho for cell l from scalar offset soff.
func (b *Benchmark) fillEigenRows(ls *lineScratch, l, soff int, p *dirSpec, vel []float64) {
	c := &b.C
	ru1 := c.C3c4 * b.F.RhoI[soff]
	ls.cv[l] = vel[soff]
	r := p.d2or3or4 + c.Con43*ru1
	if v := p.d5 + c.C1c5*ru1; v > r {
		r = v
	}
	if v := p.dmax + ru1; v > r {
		r = v
	}
	if p.d1 > r {
		r = p.d1
	}
	ls.rho[l] = r
}

// buildLHS assembles the three pentadiagonal factors for one line of
// length n, given the already-filled cv/rho rows and the line's sound
// speeds at speed[sbase+l*sstride].
func (b *Benchmark) buildLHS(ls *lineScratch, n int, p *dirSpec, speed []float64, sbase, sstride int) {
	lhs, lhsp, lhsm := ls.lhs[:n], ls.lhsp[:n], ls.lhsm[:n]
	cv, rho := ls.cv[:n], ls.rho[:n]
	for _, i := range [2]int{0, n - 1} {
		lhs[i] = [5]float64{2: 1}
		lhsp[i] = [5]float64{2: 1}
		lhsm[i] = [5]float64{2: 1}
	}
	for i := 1; i < n-1; i++ {
		r := &lhs[i]
		r[0] = 0
		r[1] = -p.dtt2*cv[i-1] - p.dtt1*rho[i-1]
		r[2] = 1.0 + p.c2dtt1*rho[i]
		r[3] = p.dtt2*cv[i+1] - p.dtt1*rho[i+1]
		r[4] = 0
	}
	dissipate(lhs, n, b.comz1, b.comz4, b.comz5, b.comz6)
	for i := 1; i < n-1; i++ {
		u, up, um := &lhs[i], &lhsp[i], &lhsm[i]
		cm := p.dtt2 * speed[sbase+(i-1)*sstride]
		cp := p.dtt2 * speed[sbase+(i+1)*sstride]
		up[0], up[1], up[2], up[3], up[4] = u[0], u[1]-cm, u[2], u[3]+cp, u[4]
		um[0], um[1], um[2], um[3], um[4] = u[0], u[1]+cm, u[2], u[3]-cp, u[4]
	}
}

// dissipate adds the fourth-order dissipation to the convective
// factor's rows, as the Fortran does.
func dissipate(lhs [][5]float64, n int, comz1, comz4, comz5, comz6 float64) {
	r := &lhs[1]
	r[2] += comz5
	r[3] -= comz4
	r[4] += comz1
	r = &lhs[2]
	r[1] -= comz4
	r[2] += comz6
	r[3] -= comz4
	r[4] += comz1
	for i := 3; i <= n-4; i++ {
		r := &lhs[i]
		r[0] += comz1
		r[1] -= comz4
		r[2] += comz6
		r[3] -= comz4
		r[4] += comz1
	}
	r = &lhs[n-3]
	r[0] += comz1
	r[1] -= comz4
	r[2] += comz6
	r[3] -= comz4
	r = &lhs[n-2]
	r[0] += comz1
	r[1] -= comz4
	r[2] += comz5
}

// solveLine runs the scalar pentadiagonal Thomas algorithm of all three
// factors of one line together: the convective factor (lhs) on rhs
// components 0-2 and the acoustic factors (lhsp, lhsm) on components 3
// and 4 of the line's 5-vectors at rhs[base+l*stride:].
func solveLine(lhs, lhsp, lhsm [][5]float64, rhs []float64, base, stride int) {
	n := len(lhs)
	lhsp, lhsm = lhsp[:n], lhsm[:n]
	r0, r1 := grid.Vec5(rhs, base), grid.Vec5(rhs, base+stride)
	for i := 0; i+2 < n; i++ {
		r2 := grid.Vec5(rhs, base+(i+2)*stride)
		u0, u1, u2 := &lhs[i], &lhs[i+1], &lhs[i+2]
		p0, p1, p2 := &lhsp[i], &lhsp[i+1], &lhsp[i+2]
		m0, m1, m2 := &lhsm[i], &lhsm[i+1], &lhsm[i+2]

		fu, fp, fm := 1.0/u0[2], 1.0/p0[2], 1.0/m0[2]
		u0[3] *= fu
		u0[4] *= fu
		p0[3] *= fp
		p0[4] *= fp
		m0[3] *= fm
		m0[4] *= fm
		r0[0] *= fu
		r0[1] *= fu
		r0[2] *= fu
		r0[3] *= fp
		r0[4] *= fm

		bu, bp, bm := u1[1], p1[1], m1[1]
		u1[2] -= bu * u0[3]
		u1[3] -= bu * u0[4]
		p1[2] -= bp * p0[3]
		p1[3] -= bp * p0[4]
		m1[2] -= bm * m0[3]
		m1[3] -= bm * m0[4]
		r1[0] -= bu * r0[0]
		r1[1] -= bu * r0[1]
		r1[2] -= bu * r0[2]
		r1[3] -= bp * r0[3]
		r1[4] -= bm * r0[4]

		bu, bp, bm = u2[0], p2[0], m2[0]
		u2[1] -= bu * u0[3]
		u2[2] -= bu * u0[4]
		p2[1] -= bp * p0[3]
		p2[2] -= bp * p0[4]
		m2[1] -= bm * m0[3]
		m2[2] -= bm * m0[4]
		r2[0] -= bu * r0[0]
		r2[1] -= bu * r0[1]
		r2[2] -= bu * r0[2]
		r2[3] -= bp * r0[3]
		r2[4] -= bm * r0[4]

		r0, r1 = r1, r2
	}

	u0, u1 := &lhs[n-2], &lhs[n-1]
	p0, p1 := &lhsp[n-2], &lhsp[n-1]
	m0, m1 := &lhsm[n-2], &lhsm[n-1]
	fu, fp, fm := 1.0/u0[2], 1.0/p0[2], 1.0/m0[2]
	u0[3] *= fu
	u0[4] *= fu
	p0[3] *= fp
	p0[4] *= fp
	m0[3] *= fm
	m0[4] *= fm
	r0[0] *= fu
	r0[1] *= fu
	r0[2] *= fu
	r0[3] *= fp
	r0[4] *= fm
	bu, bp, bm := u1[1], p1[1], m1[1]
	u1[2] -= bu * u0[3]
	u1[3] -= bu * u0[4]
	p1[2] -= bp * p0[3]
	p1[3] -= bp * p0[4]
	m1[2] -= bm * m0[3]
	m1[3] -= bm * m0[4]
	r1[0] -= bu * r0[0]
	r1[1] -= bu * r0[1]
	r1[2] -= bu * r0[2]
	r1[3] -= bp * r0[3]
	r1[4] -= bm * r0[4]
	fu, fp, fm = 1.0/u1[2], 1.0/p1[2], 1.0/m1[2]
	r1[0] *= fu
	r1[1] *= fu
	r1[2] *= fu
	r1[3] *= fp
	r1[4] *= fm

	r0[0] -= u0[3] * r1[0]
	r0[1] -= u0[3] * r1[1]
	r0[2] -= u0[3] * r1[2]
	r0[3] -= p0[3] * r1[3]
	r0[4] -= m0[3] * r1[4]
	for i := n - 3; i >= 0; i-- {
		r := grid.Vec5(rhs, base+i*stride)
		u, p, m := &lhs[i], &lhsp[i], &lhsm[i]
		r[0] -= u[3]*r0[0] + u[4]*r1[0]
		r[1] -= u[3]*r0[1] + u[4]*r1[1]
		r[2] -= u[3]*r0[2] + u[4]*r1[2]
		r[3] -= p[3]*r0[3] + p[4]*r1[3]
		r[4] -= m[3]*r0[4] + m[4]*r1[4]
		r0, r1 = r, r0
	}
}

// interior calls body on the scalar offset of every interior point and
// on the offset of its 5-vector in the m-fastest layout, k, j, i nested
// in that order.
func (b *Benchmark) interior(body func(s, ro int)) {
	n, f := b.N, b.F
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				body(f.SAt(i, j, k), 5*f.SAt(i, j, k))
			}
		}
	}
}

// oracleSolves runs the three factor sweeps, one scalar line at a
// time, and the four transforms as passes of their own over Rhs: the
// oracle of the grouped sweeps with the transforms folded in. It runs
// on a copy of Rhs in the m-fastest layout it was written for, a
// point's five components together, and writes the result back.
func (b *Benchmark) oracleSolves() {
	n, f, c := b.N, b.F, &b.C
	ls := newLineScratch(n)
	rhs := make([]float64, 5*len(f.Rhs[0]))
	for m, row := range f.Rhs {
		for p, v := range row {
			rhs[5*p+m] = v
		}
	}
	b.interior(func(s, ro int) { // txinvr
		ru1 := f.RhoI[s]
		uu, vv, ww := f.Us[s], f.Vs[s], f.Ws[s]
		ac := f.Speed[s]
		ac2inv := 1.0 / (ac * ac)
		r1, r2, r3, r4, r5 := rhs[ro], rhs[ro+1], rhs[ro+2], rhs[ro+3], rhs[ro+4]
		t1 := c.C2 * ac2inv * (f.Qs[s]*r1 - uu*r2 - vv*r3 - ww*r4 + r5)
		t2 := bts * ru1 * (uu*r1 - r2)
		t3 := bts * ru1 * ac * t1
		rhs[ro] = r1 - t1
		rhs[ro+1] = -ru1 * (ww*r1 - r4)
		rhs[ro+2] = ru1 * (vv*r1 - r3)
		rhs[ro+3] = -t2 + t3
		rhs[ro+4] = t2 + t3
	})
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 0; i < n; i++ {
				b.fillEigenRows(ls, i, f.SAt(i, j, k), &b.dirs[0], f.Us)
			}
			b.buildLHS(ls, n, &b.dirs[0], f.Speed, f.SAt(0, j, k), 1)
			solveLine(ls.lhs, ls.lhsp, ls.lhsm, rhs, 5*f.SAt(0, j, k), 5)
		}
	}
	b.interior(func(s, ro int) { // ninvr
		r1, r2, r3, r4, r5 := rhs[ro], rhs[ro+1], rhs[ro+2], rhs[ro+3], rhs[ro+4]
		t1 := bts * r3
		t2 := 0.5 * (r4 + r5)
		rhs[ro] = -r2
		rhs[ro+1] = r1
		rhs[ro+2] = bts * (r4 - r5)
		rhs[ro+3] = -t1 + t2
		rhs[ro+4] = t1 + t2
	})
	for k := 1; k < n-1; k++ {
		for i := 1; i < n-1; i++ {
			for j := 0; j < n; j++ {
				b.fillEigenRows(ls, j, f.SAt(i, j, k), &b.dirs[1], f.Vs)
			}
			b.buildLHS(ls, n, &b.dirs[1], f.Speed, f.SAt(i, 0, k), n)
			solveLine(ls.lhs, ls.lhsp, ls.lhsm, rhs, 5*f.SAt(i, 0, k), 5*n)
		}
	}
	b.interior(func(s, ro int) { // pinvr
		r1, r2, r3, r4, r5 := rhs[ro], rhs[ro+1], rhs[ro+2], rhs[ro+3], rhs[ro+4]
		t1 := bts * r1
		t2 := 0.5 * (r4 + r5)
		rhs[ro] = bts * (r4 - r5)
		rhs[ro+1] = -r3
		rhs[ro+2] = r2
		rhs[ro+3] = -t1 + t2
		rhs[ro+4] = t1 + t2
	})
	for j := 1; j < n-1; j++ {
		for i := 1; i < n-1; i++ {
			for k := 0; k < n; k++ {
				b.fillEigenRows(ls, k, f.SAt(i, j, k), &b.dirs[2], f.Ws)
			}
			b.buildLHS(ls, n, &b.dirs[2], f.Speed, f.SAt(i, j, 0), n*n)
			solveLine(ls.lhs, ls.lhsp, ls.lhsm, rhs, 5*f.SAt(i, j, 0), 5*n*n)
		}
	}
	b.interior(func(s, ro int) { // tzetar
		xvel, yvel, zvel := f.Us[s], f.Vs[s], f.Ws[s]
		ac := f.Speed[s]
		ac2u := ac * ac
		r1, r2, r3, r4, r5 := rhs[ro], rhs[ro+1], rhs[ro+2], rhs[ro+3], rhs[ro+4]
		uzik1 := f.U[0][s]
		btuz := bts * uzik1
		t1 := btuz / ac * (r4 + r5)
		t2 := r3 + t1
		t3 := btuz * (r4 - r5)
		rhs[ro] = t2
		rhs[ro+1] = -uzik1*r2 + xvel*t2
		rhs[ro+2] = uzik1*r1 + yvel*t2
		rhs[ro+3] = zvel*t2 + t3
		rhs[ro+4] = uzik1*(-xvel*r2+yvel*r1) +
			f.Qs[s]*t2 + c.C2iv*ac2u*t1 + zvel*t3
	})
	for m, row := range f.Rhs {
		for p := range row {
			row[p] = rhs[5*p+m]
		}
	}
}

// TestLaneKernelsMatchScalar holds each generated lane kernel to its
// scalar body, lane by lane and bit for bit, on random inputs with
// zeros of both signs, infinities, NaNs and subnormals among them
// (rowcheck.Lanes). eigen's three
// bounds are compare-and-blends, so it also runs on lanes where the
// compared values are zeros of opposite signs or NaN, where Go keeps
// the bound and a VMAXPD would not.
func TestLaneKernelsMatchScalar(t *testing.T) {
	rowcheck.Lanes(t, [][2]any{
		{eigen8, eigen}, {lhsRow8, lhsRow}, {forwardStep8, forwardStep}, {lastRows8, lastRows},
		{backStep8, backStep}, {txinvr8, txinvr}, {ninvr8, ninvr}, {pinvr8, pinvr}, {tzetar8, tzetar},
	})
	negZero, nan := math.Copysign(0, -1), math.NaN()
	rowcheck.Modes(t, func(width int) {
		// With c3c4 = con43 = c1c5 = 1, r = d2or3or4 + ru1 and the
		// first candidate d5 + ru1: ru1 = -0 makes them -0 and +0.
		var s cell8
		s[3] = [8]float64{negZero, 0, nan, 1, 1, nan, 0, negZero}
		for _, d := range [][4]float64{{negZero, 0, 0, negZero}, {0, negZero, negZero, 0}, {negZero, 0, nan, 0}} {
			got := s
			eigen8(8, &got, 1, 1, 1, d[0], d[1], d[2], d[3])
			for q := range s[0] {
				want := [8]float64(rowcheck.Lane(s[:], q))
				eigen(&want, 1, 1, 1, d[0], d[1], d[2], d[3])
				if g, w := got[1][q], want[1]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("width %d bounds %v lane %d: rho %v (%#x), scalar %v (%#x)", width, d, q, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	})
}

// TestDissipationTable: subtracting dissipation's table entry from
// each band is, bit for bit, the Fortran's adds and subtracts, on
// bands with zeros of both signs, for every line length from the
// shortest whose four special rows are distinct; shorter lines are
// refused.
func TestDissipationTable(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const comz1, comz4, comz5, comz6 = 0.25, 1.0, 1.25, 1.5
	for n := 6; n <= 13; n++ {
		table := dissipation(n, comz1, comz4, comz5, comz6)
		want := make([][5]float64, n)
		for i := range want {
			for bd := range want[i] {
				switch rng.Intn(4) {
				case 0:
					want[i][bd] = math.Copysign(0, -1)
				case 1:
					want[i][bd] = 0
				default:
					want[i][bd] = rng.Float64() - 0.5
				}
			}
		}
		got := append([][5]float64(nil), want...)
		dissipate(want, n, comz1, comz4, comz5, comz6)
		for i := range got {
			for bd := range got[i] {
				if g, w := got[i][bd]-table[i][bd], want[i][bd]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n=%d row %d band %d: %v, Fortran order %v", n, i, bd, g, w)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("dissipation(5) did not refuse a line of 5 cells")
		}
	}()
	dissipation(5, comz1, comz4, comz5, comz6)
}

// TestSweepsMatchScalarOracle holds the three sweeps, lines in groups
// of eight lanes and the transforms folded in, to the scalar solver
// above, on every element of Rhs, the boundary's included, after a
// step on a developed field. Line counts of 10, 11 and 34 a plane, at
// thread counts that leave some workers one plane or none, put groups
// across planes and chunks and leave short groups at the ends; every
// schedule deals the planes differently.
func TestSweepsMatchScalarOracle(t *testing.T) {
	for _, n := range []int{12, 13, 36} {
		small := code
		small.Classes = map[byte]nscore.Class{'S': {Size: n, Niter: 1, Dt: 0.0015}}
		ref, err := newBenchmark(&small, 'S', 1, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		tm := team.New(1)
		ref.F.Initialize(&ref.C)
		ref.F.ExactRHS(&ref.C)
		ref.Iter(tm)
		ref.F.ComputeRHS(&ref.C, tm)
		tm.Close()
		start := ref.F.Rhs
		for m := range start {
			start[m] = append([]float64(nil), start[m]...)
		}
		ref.oracleSolves()

		for _, threads := range []int{1, 2, 3, 7, 13} {
			for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
				b, err := newBenchmark(&small, 'S', threads, kernel.Env{})
				if err != nil {
					t.Fatal(err)
				}
				// The sweeps read only Rhs and the scalars: share the
				// reference's field with a fresh Rhs.
				f := *ref.F
				for m := range f.Rhs {
					f.Rhs[m] = append([]float64(nil), start[m]...)
				}
				b.F = &f
				tm := team.New(threads, team.WithSchedule(sched))
				for d := range b.dirs {
					b.Sweep(tm, d)
				}
				tm.Close()
				for m, row := range ref.F.Rhs {
					for e, w := range row {
						if g := f.Rhs[m][e]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("n=%d %d threads %s: rhs%d[%d] = %v, oracle %v", n, threads, sched, m, e, g, w)
						}
					}
				}
			}
		}
	}
}

// TestPortableLanesReproduceGolden runs SP.S on the portable path
// (simd.Width 1) and the AVX one (4) at one and two threads and compares the
// verification printout with the one recorded in
// testdata/bitidentity.golden (rowcheck.Golden).
func TestPortableLanesReproduceGolden(t *testing.T) {
	rowcheck.Golden(t, "SP", func(threads int) string {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return b.RunResult().Verify.String()
	})
}
