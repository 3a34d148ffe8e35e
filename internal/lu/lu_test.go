package lu

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

// TestForcingBalancesExactSolution: with u set to the exact solution,
// rsd = R(u) - frct must vanish because frct = R(u_exact).
func TestForcingBalancesExactSolution(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	var ue [5]float64
	n := b.n
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b.exactAt(i, j, k, &ue)
				p := b.at(i, j, k)
				for m, u := range &b.u {
					u[p] = ue[m]
				}
			}
		}
	}
	b.erhs(tm)
	b.rhs(tm)
	worst := 0.0
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				p := b.at(i, j, k)
				for _, r := range &b.rsd {
					if a := math.Abs(r[p]); a > worst {
						worst = a
					}
				}
			}
		}
	}
	if worst > 1e-11 {
		t.Fatalf("rsd of exact solution not zero: max = %v", worst)
	}
}

func TestSolve5AgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		var a [25]float64
		var r [5]float64
		for i := range a {
			a[i] = rng.Float64() - 0.5
		}
		for d := 0; d < 5; d++ {
			a[d+5*d] += 3.0
		}
		for m := 0; m < 5; m++ {
			r[m] = rng.Float64() - 0.5
		}
		aCopy, rCopy := a, r
		solve5(&a, &r)
		// Check A*x == r0.
		for m := 0; m < 5; m++ {
			s := 0.0
			for l := 0; l < 5; l++ {
				s += aCopy[m+5*l] * r[l]
			}
			if math.Abs(s-rCopy[m]) > 1e-10 {
				t.Fatalf("trial %d row %d: A*x = %v, want %v", trial, m, s, rCopy[m])
			}
		}
	}
}

// solve5 solves the 5x5 system a*x = r in place (unpivoted Gaussian
// elimination, as blts/buts do; the blocks are diagonally dominant),
// written out in full: pivots p = 0..4, each scaling its row and then
// eliminating rows q > p, followed by the back substitution. It is the
// oracle of factor5 and apply5, which the sweeps run in its place.
func solve5(a *[25]float64, r *[5]float64) {
	piv := 1.0 / a[0]
	a[5] *= piv
	a[10] *= piv
	a[15] *= piv
	a[20] *= piv
	r[0] *= piv
	coeff := a[1]
	a[6] -= coeff * a[5]
	a[11] -= coeff * a[10]
	a[16] -= coeff * a[15]
	a[21] -= coeff * a[20]
	r[1] -= coeff * r[0]
	coeff = a[2]
	a[7] -= coeff * a[5]
	a[12] -= coeff * a[10]
	a[17] -= coeff * a[15]
	a[22] -= coeff * a[20]
	r[2] -= coeff * r[0]
	coeff = a[3]
	a[8] -= coeff * a[5]
	a[13] -= coeff * a[10]
	a[18] -= coeff * a[15]
	a[23] -= coeff * a[20]
	r[3] -= coeff * r[0]
	coeff = a[4]
	a[9] -= coeff * a[5]
	a[14] -= coeff * a[10]
	a[19] -= coeff * a[15]
	a[24] -= coeff * a[20]
	r[4] -= coeff * r[0]
	piv = 1.0 / a[6]
	a[11] *= piv
	a[16] *= piv
	a[21] *= piv
	r[1] *= piv
	coeff = a[7]
	a[12] -= coeff * a[11]
	a[17] -= coeff * a[16]
	a[22] -= coeff * a[21]
	r[2] -= coeff * r[1]
	coeff = a[8]
	a[13] -= coeff * a[11]
	a[18] -= coeff * a[16]
	a[23] -= coeff * a[21]
	r[3] -= coeff * r[1]
	coeff = a[9]
	a[14] -= coeff * a[11]
	a[19] -= coeff * a[16]
	a[24] -= coeff * a[21]
	r[4] -= coeff * r[1]
	piv = 1.0 / a[12]
	a[17] *= piv
	a[22] *= piv
	r[2] *= piv
	coeff = a[13]
	a[18] -= coeff * a[17]
	a[23] -= coeff * a[22]
	r[3] -= coeff * r[2]
	coeff = a[14]
	a[19] -= coeff * a[17]
	a[24] -= coeff * a[22]
	r[4] -= coeff * r[2]
	piv = 1.0 / a[18]
	a[23] *= piv
	r[3] *= piv
	coeff = a[19]
	a[24] -= coeff * a[23]
	r[4] -= coeff * r[3]
	piv = 1.0 / a[24]
	r[4] *= piv
	r[3] -= a[23] * r[4]
	r[2] -= a[17] * r[3]
	r[2] -= a[22] * r[4]
	r[1] -= a[11] * r[2]
	r[1] -= a[16] * r[3]
	r[1] -= a[21] * r[4]
	r[0] -= a[5] * r[1]
	r[0] -= a[10] * r[2]
	r[0] -= a[15] * r[3]
	r[0] -= a[20] * r[4]
}

// TestFactorApplyMatchesSolve5 holds factor5 on eight lanes of blocks,
// then apply5 on each lane, to solve5 on that lane's block and
// right-hand side, bit for bit: diagonally dominant blocks, as the
// sweeps' are, with zeros of both signs among the entries of both.
func TestFactorApplyMatchesSolve5(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	fill := func() float64 {
		switch rng.Intn(6) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64() - 0.5
	}
	rowcheck.Modes(t, func(width int) {
		for trial := 0; trial < 200; trial++ {
			var a blk8
			var r [8][5]float64
			for e := range a {
				for q := range a[e] {
					a[e][q] = fill()
					if e%6 == 0 {
						a[e][q] += 3.0
					}
				}
			}
			for q := range r {
				for m := range r[q] {
					r[q][m] = fill()
				}
			}
			f := a
			factor58(8, &f)
			for q := range r {
				sa, sr := [25]float64(rowcheck.Lane(a[:], q)), r[q]
				solve5(&sa, &sr)
				got := r[q]
				apply5(&f, q, &got)
				for m := range sr {
					if math.Float64bits(got[m]) != math.Float64bits(sr[m]) {
						t.Fatalf("width %d trial %d lane %d: x[%d] = %v (%#x), solve5 %v (%#x)", width, trial, q, m,
							got[m], math.Float64bits(got[m]), sr[m], math.Float64bits(sr[m]))
					}
				}
				// Off the diagonal, factor5 leaves what solve5 does.
				for e := range sa {
					if g := f[e][q]; e%6 != 0 && math.Float64bits(g) != math.Float64bits(sa[e]) {
						t.Fatalf("width %d trial %d lane %d: block [%d] = %v, solve5 %v", width, trial, q, e, g, sa[e])
					}
				}
			}
		}
	})
}

// oracleJacobians evaluates nscore.FluxViscJacobians — the single
// Jacobian definition BT solves with — at state u for direction cv.
func oracleJacobians(c *nscore.Consts, u *[5]float64, cv int) (fj, nj [25]float64) {
	rhoI := 1.0 / u[0]
	sq := 0.5 * (u[1]*u[1] + u[2]*u[2] + u[3]*u[3]) * rhoI
	nscore.FluxViscJacobians(c, u, rhoI, sq*rhoI, sq, cv, &fj, &nj)
	return fj, nj
}

// oracleDirConsts returns (t1, t2, d[5]) of direction cv.
func oracleDirConsts(c *nscore.Consts, cv int) (t1, t2 float64, d [5]float64) {
	switch cv {
	case 1:
		return c.Tx1, c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}
	case 2:
		return c.Ty1, c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}
	default:
		return c.Tz1, c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}
	}
}

// oracleCoupling assembles sign*dt*t2*F - dt*t1*N - dt*t1*diag(d) from
// the generic Jacobians, as the point kernel did before the blocks were
// written out by hand.
func oracleCoupling(c *nscore.Consts, u *[5]float64, cv int, sign float64) (dst [25]float64) {
	t1, t2, d := oracleDirConsts(c, cv)
	fj, nj := oracleJacobians(c, u, cv)
	for e := range dst {
		dst[e] = sign*c.Dt*t2*fj[e] - c.Dt*t1*nj[e]
	}
	for m := 0; m < 5; m++ {
		dst[m+5*m] -= c.Dt * t1 * d[m]
	}
	return dst
}

// oracleDiagonal assembles I + 2dt*sum_dir t1*(N + diag(d)) likewise.
func oracleDiagonal(c *nscore.Consts, u *[5]float64) (dst [25]float64) {
	for cv := 1; cv <= 3; cv++ {
		t1, _, d := oracleDirConsts(c, cv)
		_, nj := oracleJacobians(c, u, cv)
		for e := range dst {
			dst[e] += 2.0 * c.Dt * t1 * nj[e]
		}
		for m := 0; m < 5; m++ {
			dst[m+5*m] += 2.0 * c.Dt * t1 * d[m]
		}
	}
	for m := 0; m < 5; m++ {
		dst[m+5*m] += 1.0
	}
	return dst
}

// TestBlocksMatchJacobianOracle holds the hand-written coupling and
// diagonal blocks to the blocks assembled from nscore.FluxViscJacobians
// on random physical states, for all three directions and both signs.
// One set of scratch blocks is reused for every state, as the sweeps
// reuse theirs, so entries the oracle has at exactly zero must have
// stayed exactly zero.
func TestBlocksMatchJacobianOracle(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	k := &b.blk
	var ax, ay, az, d [25]float64
	type coupling func(dst *[25]float64, u *[5]float64, f, n, c1, c2, r43, c34, m43, m34, c1345, d0, d1, d2, d3, d4 float64)
	couple := func(dst *[25]float64, kernel coupling, dc *dirConsts, u *[5]float64, sign float64) {
		kernel(dst, u, sign*dc.c2, dc.c1, k.c1, k.c2, k.r43, k.c34, k.m43, k.m34, k.c1345, dc.d[0], dc.d[1], dc.d[2], dc.d[3], dc.d[4])
	}
	check := func(name string, got, want *[25]float64) {
		t.Helper()
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		for e := range want {
			if want[e] == 0 {
				if got[e] != 0 {
					t.Fatalf("%s: structural zero (%d,%d) holds %v", name, e%5, e/5, got[e])
				}
				continue
			}
			if diff := math.Abs(got[e] - want[e]); diff > 1e-13*scale {
				t.Fatalf("%s (%d,%d): %v, oracle %v", name, e%5, e/5, got[e], want[e])
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		// Density in [0.5, 2.5), momenta in [-1, 1), energy well above
		// the kinetic part: the range the class S-C flows stay inside.
		u := [5]float64{0.5 + 2*rng.Float64(), 2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1, 2 + 4*rng.Float64()}
		for _, sign := range [2]float64{-1, +1} {
			couple(&ax, couplingX, &k.x, &u, sign)
			couple(&ay, couplingY, &k.y, &u, sign)
			couple(&az, couplingZ, &k.z, &u, sign)
			for cv, got := range [3]*[25]float64{&ax, &ay, &az} {
				want := oracleCoupling(&b.c, &u, cv+1, sign)
				check("coupling", got, &want)
			}
		}
		diagonal(&d, &u, k.kd[1], k.kd[2], k.kd[3], k.km[1], k.km[2], k.km[3], k.te, k.e[0], k.e[1], k.e[2], k.e[3], k.e[4])
		want := oracleDiagonal(&b.c, &u)
		check("diagonal", &d, &want)
		// The sweeps factor the diagonal block in place before it is
		// refilled; that must not disturb its zeros either.
		factor5(&d)
	}
}

// TestRowKernelsMatchScalar holds each generated row kernel to its
// scalar body, bit for bit, at every row length from 0 to 17, on random
// rows with zeros of both signs among them (rowcheck.Kernels).
func TestRowKernelsMatchScalar(t *testing.T) {
	rowcheck.Kernels(t, [][2]any{
		{opVelRow, opVel}, {opFluxRow, opFlux}, {opVisc4Row, opVisc4},
		{opRhoRow, opRho}, {opMomRow, opMom}, {opEnergyRow, opEnergy},
	})
}

// TestOperatorMatchesOracle holds applyOperator to the line-by-line
// operator it replaced, on both of its paths — erhs (out = frct from
// zero, w = the exact solution erhs leaves in rsd) and rhs (out = rsd
// from -frct, w = u) — on grids of 8 to 14 points a side, whose spans
// of n(n-2) points and rows of n leave every length from 0 to 7 after
// the 8-point groups, at team sizes below and above the interior planes,
// under every schedule, at every simd.Width the host has. Every
// element of rsd and frct, the boundary included, must agree bit for
// bit.
func TestOperatorMatchesOracle(t *testing.T) {
	for _, n := range []int{8, 9, 10, 11, 12, 13, 14} {
		spec := classSpec{size: n, itmax: 1, dt: 0.5}
		want := newBenchmark('S', spec, 1, kernel.Env{})
		want.setbv()
		want.setiv()
		want.oracleERHS()
		want.oracleRHS()
		rowcheck.Modes(t, func(width int) {
			for _, threads := range []int{1, 2, 3, 7, 13} {
				for _, sched := range []team.Schedule{team.Static, team.Dynamic, team.Guided, team.Stealing} {
					b := newBenchmark('S', spec, threads, kernel.Env{})
					tm := team.New(threads, team.WithSchedule(sched))
					b.setbv()
					b.setiv()
					b.erhs(tm)
					b.rhs(tm)
					tm.Close()
					for name, pair := range map[string][2]*[5][]float64{"frct": {&b.frct, &want.frct}, "rsd": {&b.rsd, &want.rsd}} {
						for m, row := range pair[1] {
							for p := range row {
								if got := pair[0][m][p]; math.Float64bits(got) != math.Float64bits(row[p]) {
									t.Fatalf("n=%d width %d %d threads %s: %s[%d][%d] = %v, oracle %v",
										n, width, threads, sched, name, m, p, got, row[p])
								}
							}
						}
					}
				}
			}
		})
	}
}

// oracleERHS and oracleRHS are erhs and rhs over oracleOperator, which
// runs on m-fastest copies of the fields (pack, unpack).
func (b *Benchmark) oracleERHS() {
	var ue [5]float64
	n3 := b.n * b.n * b.n
	frct, rsd := make([]float64, 5*n3), make([]float64, 5*n3)
	for k := 0; k < b.n; k++ {
		for j := 0; j < b.n; j++ {
			for i := 0; i < b.n; i++ {
				b.exactAt(i, j, k, &ue)
				copy(rsd[5*b.at(i, j, k):], ue[:])
			}
		}
	}
	b.oracleOperator(frct, rsd)
	unpack(&b.frct, frct)
	unpack(&b.rsd, rsd)
}

func (b *Benchmark) oracleRHS() {
	rsd := pack(&b.frct)
	for i := range rsd {
		rsd[i] = -rsd[i]
	}
	b.oracleOperator(rsd, pack(&b.u))
	unpack(&b.rsd, rsd)
}

// pack returns the m-fastest copy of x: x[m][p] at 5p+m.
func pack(x *[5][]float64) []float64 {
	v := make([]float64, 5*len(x[0]))
	for m, r := range x {
		for p, e := range r {
			v[5*p+m] = e
		}
	}
	return v
}

// unpack copies the m-fastest v into the rows of x.
func unpack(x *[5][]float64, v []float64) {
	for m, r := range x {
		for p := range r {
			r[p] = v[5*p+m]
		}
	}
}

// oracleOperator is applyOperator as it ran on the m-fastest fields,
// a grid line at a time, serially: operatorLine on every line of each
// direction in turn.
func (b *Benchmark) oracleOperator(out, w []float64) {
	n := b.n
	flux := make([][5]float64, n)
	// line, inner and outer strides of each direction's lines
	strides := [3][3]int{{5, 5 * n, 5 * n * n}, {5 * n, 5, 5 * n * n}, {5 * n * n, 5, 5 * n}}
	for dir, st := range strides {
		for o := 1; o < n-1; o++ {
			for a := 1; a < n-1; a++ {
				b.operatorLine(out, w, flux, a*st[1]+o*st[2], st[0], &b.ops[dir])
			}
		}
	}
}

// operatorLine adds direction d's terms of R(w) along one grid line to
// out: the central difference of the convective fluxes, the difference
// of the viscous fluxes, the second difference of w and the
// fourth-order dissipation. Point l of the line has its 5-vector at
// base+l*stride in out and w; flux is a row per point.
func (b *Benchmark) operatorLine(out, w []float64, flux [][5]float64, base, stride int, d *opDir) {
	c := &b.c
	n := len(flux)
	cv := d.cv

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

	dissipLine(out, w, n, c.Dssp, base, stride)
}

// dissipLine subtracts the boundary-adjusted fourth-difference
// dissipation of w from out along one grid line of n points, point l's
// 5-vector at base+l*stride in both.
func dissipLine(out, w []float64, n int, dssp float64, base, stride int) {
	u := func(l int) *[5]float64 { return grid.Vec5(w, base+l*stride) }
	r := func(l int) *[5]float64 { return grid.Vec5(out, base+l*stride) }
	r1, r2 := r(1), r(2)
	u1, u2, u3, u4 := u(1), u(2), u(3), u(4)
	for m := 0; m < 5; m++ {
		r1[m] -= dssp * (5.0*u1[m] - 4.0*u2[m] + u3[m])
		r2[m] -= dssp * (-4.0*u1[m] + 6.0*u2[m] - 4.0*u3[m] + u4[m])
	}
	for l := 3; l <= n-4; l++ {
		rl := r(l)
		um2, um1, u0, up1, up2 := u(l-2), u(l-1), u(l), u(l+1), u(l+2)
		for m := 0; m < 5; m++ {
			rl[m] -= dssp * (um2[m] - 4.0*um1[m] + 6.0*u0[m] - 4.0*up1[m] + up2[m])
		}
	}
	rn3, rn2 := r(n-3), r(n-2)
	un5, un4, un3, un2 := u(n-5), u(n-4), u(n-3), u(n-2)
	for m := 0; m < 5; m++ {
		rn3[m] -= dssp * (un5[m] - 4.0*un4[m] + 6.0*un3[m] - 4.0*un2[m])
		rn2[m] -= dssp * (un4[m] - 4.0*un3[m] + 5.0*un2[m])
	}
}

func TestSetbvExactOnFaces(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	b.setbv()
	var ue [5]float64
	n := b.n
	for _, p := range [][3]int{{0, 5, 6}, {n - 1, 5, 6}, {5, 0, 6}, {5, n - 1, 6}, {5, 6, 0}, {5, 6, n - 1}} {
		b.exactAt(p[0], p[1], p[2], &ue)
		at := b.at(p[0], p[1], p[2])
		for m, u := range &b.u {
			if u[at] != ue[m] {
				t.Fatalf("boundary %v component %d mismatch", p, m)
			}
		}
	}
}

func TestResidualDecreasesOverSSORSteps(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.setbv()
	b.setiv()
	b.erhs(tm)
	b.rhs(tm)
	r0 := nscore.RMS(&b.rsd, b.n)
	// Run a shortened SSOR loop manually.
	b.itmax = 10
	b.ssor(tm)
	r1 := nscore.RMS(&b.rsd, b.n)
	for m := 0; m < 5; m++ {
		if !(r1[m] < r0[m]) {
			t.Fatalf("component %d residual did not decrease: %v -> %v", m, r0[m], r1[m])
		}
	}
}

// ssorField runs steps SSOR iterations of class S on the given team
// shape and returns the flow field, packed m-fastest.
func ssorField(t *testing.T, threads, steps int, sched team.Schedule) []float64 {
	t.Helper()
	b, err := New('S', threads, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(threads, team.WithSchedule(sched))
	defer tm.Close()
	b.setbv()
	b.setiv()
	b.erhs(tm)
	b.itmax = steps
	b.ssor(tm)
	return pack(&b.u)
}

// TestParallelMatchesSerialBitwise: the pipelined sweeps visit every
// point after the three neighbours it depends on whatever the team
// size, and the explicit phases write disjoint planes under every
// schedule, so the field must be bit-identical to the serial run, at
// thirteen threads too (more than class S's ten interior planes).
func TestParallelMatchesSerialBitwise(t *testing.T) {
	want := ssorField(t, 1, 5, team.Static)
	for _, threads := range []int{1, 2, 3, 4, 7, 13} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic, team.Guided, team.Stealing} {
			got := ssorField(t, threads, 5, sched)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("u[%d] at %d threads under %s differs from serial: %v vs %v",
						i, threads, sched, got[i], want[i])
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
		if math.IsNaN(res.RsdNm[m]) || math.IsNaN(res.ErrNm[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
	if math.IsNaN(res.Frc) || res.Frc == 0 {
		t.Fatalf("suspicious surface integral %v", res.Frc)
	}
}

// TestLaneKernelsMatchScalar holds each generated lane kernel, the
// blocks of a row's eight consecutive points, to its scalar body, lane by
// lane and bit for bit, on random inputs with zeros of both signs in
// every lane (rowcheck.Lanes).
func TestLaneKernelsMatchScalar(t *testing.T) {
	rowcheck.Lanes(t, [][2]any{
		{couplingX8, couplingX}, {couplingY8, couplingY}, {couplingZ8, couplingZ}, {diagonal8, diagonal}, {factor58, factor5},
	})
}

// TestPortableLanesReproduceGolden runs LU.S on the portable path
// (simd.Width 1) and the AVX one (4) at one and two threads and compares the
// verification printout with the one recorded in
// testdata/bitidentity.golden (rowcheck.Golden).
func TestPortableLanesReproduceGolden(t *testing.T) {
	rowcheck.Golden(t, "LU", func(threads int) string {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return b.RunResult().Verify.String()
	})
}
