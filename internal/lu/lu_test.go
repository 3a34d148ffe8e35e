package lu

import (
	"math"
	"math/rand"
	"testing"
	"time"

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
// oracle of diagonal's factored block and apply5, which the sweeps run
// in its place.
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

// factor5 is the block half of solve5, the unpivoted Gaussian
// elimination of a 5x5 block in place: pivots p = 0..4, each scaling its
// row and then eliminating rows q > p, with each pivot's reciprocal left
// on the diagonal. The sweeps ran it on every diagonal block until
// diagonal wrote the factor itself; it stays as the oracle of that
// factor.
func factor5(a *[25]float64) {
	piv := 1.0 / a[0]
	a[0] = piv
	a[5] *= piv
	a[10] *= piv
	a[15] *= piv
	a[20] *= piv
	coeff := a[1]
	a[6] -= coeff * a[5]
	a[11] -= coeff * a[10]
	a[16] -= coeff * a[15]
	a[21] -= coeff * a[20]
	coeff = a[2]
	a[7] -= coeff * a[5]
	a[12] -= coeff * a[10]
	a[17] -= coeff * a[15]
	a[22] -= coeff * a[20]
	coeff = a[3]
	a[8] -= coeff * a[5]
	a[13] -= coeff * a[10]
	a[18] -= coeff * a[15]
	a[23] -= coeff * a[20]
	coeff = a[4]
	a[9] -= coeff * a[5]
	a[14] -= coeff * a[10]
	a[19] -= coeff * a[15]
	a[24] -= coeff * a[20]
	piv = 1.0 / a[6]
	a[6] = piv
	a[11] *= piv
	a[16] *= piv
	a[21] *= piv
	coeff = a[7]
	a[12] -= coeff * a[11]
	a[17] -= coeff * a[16]
	a[22] -= coeff * a[21]
	coeff = a[8]
	a[13] -= coeff * a[11]
	a[18] -= coeff * a[16]
	a[23] -= coeff * a[21]
	coeff = a[9]
	a[14] -= coeff * a[11]
	a[19] -= coeff * a[16]
	a[24] -= coeff * a[21]
	piv = 1.0 / a[12]
	a[12] = piv
	a[17] *= piv
	a[22] *= piv
	coeff = a[13]
	a[18] -= coeff * a[17]
	a[23] -= coeff * a[22]
	coeff = a[14]
	a[19] -= coeff * a[17]
	a[24] -= coeff * a[22]
	piv = 1.0 / a[18]
	a[18] = piv
	a[23] *= piv
	coeff = a[19]
	a[24] -= coeff * a[23]
	a[24] = 1.0 / a[24]
}

// blockDiagonal is diagonal before it factored its block: the
// lower-triangular block itself, its pivots as they are.
func blockDiagonal(dst *[25]float64, u *[5]float64, kd1, kd2, kd3, km1, km2, km3, te, e0, e1, e2, e3, e4 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := 1.0 / u[0]
	t2 := t1 * t1
	t3 := t1 * t2
	dst[0] = e0
	dst[1] = -kd1 * t2 * u1
	dst[2] = -kd2 * t2 * u2
	dst[3] = -kd3 * t2 * u3
	dst[4] = -(km1*u1*u1+km2*u2*u2+km3*u3*u3)*t3 - te*t2*u4
	dst[6] = kd1*t1 + e1
	dst[9] = km1 * t2 * u1
	dst[12] = kd2*t1 + e2
	dst[14] = km2 * t2 * u2
	dst[18] = kd3*t1 + e3
	dst[19] = km3 * t2 * u3
	dst[24] = te*t1 + e4
}

// TestFactorApplyMatchesSolve5 holds diagonal's factored blocks, built
// on eight lanes of random physical states at every simd.Width the host
// has, to factor5 on the unfactored block (blockDiagonal) at every
// structural non-zero, and apply5 with them on each lane to solve5 on
// that lane's unfactored block and a right-hand side, bit for bit. The
// states are class S-C's range and the right-hand sides non-zero: the
// domain in which the forward substitution is the full elimination
// (every pivot positive and finite, no intermediate -0; DESIGN.md §36).
func TestFactorApplyMatchesSolve5(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	k := &b.blk
	rng := rand.New(rand.NewSource(41))
	rowcheck.Modes(t, func(width int) {
		for trial := 0; trial < 200; trial++ {
			var u [5][8]float64
			var f blk8
			var r [8][5]float64
			for q := 0; q < 8; q++ {
				st := [5]float64{0.5 + 2*rng.Float64(), 2*rng.Float64() - 1, 2*rng.Float64() - 1, 2*rng.Float64() - 1, 2 + 4*rng.Float64()}
				for m := range st {
					u[m][q] = st[m]
					r[q][m] = rng.Float64() - 0.5
				}
			}
			diagonal8(8, &f, &u, k.kd[1], k.kd[2], k.kd[3], k.km[1], k.km[2], k.km[3], k.te, k.e[0], k.e[1], k.e[2], k.e[3], k.e[4])
			for q := range r {
				var a [25]float64
				st := [5]float64(rowcheck.Lane(u[:], q))
				blockDiagonal(&a, &st, k.kd[1], k.kd[2], k.kd[3], k.km[1], k.km[2], k.km[3], k.te, k.e[0], k.e[1], k.e[2], k.e[3], k.e[4])
				fa, sa, sr := a, a, r[q]
				factor5(&fa)
				for _, e := range []int{0, 1, 2, 3, 4, 6, 9, 12, 14, 18, 19, 24} {
					if g := f[e][q]; math.Float64bits(g) != math.Float64bits(fa[e]) {
						t.Fatalf("width %d trial %d lane %d: block [%d] = %v (%#x), factor5 %v (%#x)", width, trial, q, e,
							g, math.Float64bits(g), fa[e], math.Float64bits(fa[e]))
					}
				}
				solve5(&sa, &sr)
				got := r[q]
				apply5(&f, q, &got)
				for m := range sr {
					if math.Float64bits(got[m]) != math.Float64bits(sr[m]) {
						t.Fatalf("width %d trial %d lane %d: x[%d] = %v (%#x), solve5 %v (%#x)", width, trial, q, m,
							got[m], math.Float64bits(got[m]), sr[m], math.Float64bits(sr[m]))
					}
				}
			}
		}
	})
}

// TestSweepsMatchAcrossWidths runs both sweeps of one step on random
// physical states and a random rsd at every width the host has and
// holds rsd, every element, to the width-1 result, bit for bit: the
// step kernels on gathered lanes against coupledSum and apply5 in
// place, through the real waves, their padding lanes included, on grids
// of 12 and 13 points at one and three threads.
func TestSweepsMatchAcrossWidths(t *testing.T) {
	for _, n := range []int{12, 13} {
		for _, threads := range []int{1, 3} {
			rng := rand.New(rand.NewSource(int64(n + threads)))
			b := newBenchmark('S', classSpec{size: n, itmax: 1, dt: 0.5}, threads, kernel.Env{})
			u0, u1, u2, u3, u4 := nscore.Components(&b.u)
			for p := range u0 {
				u0[p], u1[p], u2[p], u3[p], u4[p] = 0.5+2*rng.Float64(), 2*rng.Float64()-1, 2*rng.Float64()-1, 2*rng.Float64()-1, 2+4*rng.Float64()
			}
			var start [5][]float64
			for m := range start {
				start[m] = make([]float64, len(u0))
				for p := range start[m] {
					start[m][p] = rng.Float64() - 0.5
				}
			}
			var want [5][]float64
			rowcheck.Modes(t, func(width int) {
				for m, r := range &b.rsd {
					copy(r, start[m])
				}
				tm := team.New(threads)
				b.ensurePipe(tm)
				tm.Run(b.sweepsBody)
				tm.Close()
				if width == 1 {
					for m, r := range &b.rsd {
						want[m] = append([]float64(nil), r...)
					}
					return
				}
				for m, r := range &b.rsd {
					for p, v := range r {
						if math.Float64bits(v) != math.Float64bits(want[m][p]) {
							t.Fatalf("n=%d t%d width %d: rsd[%d][%d] = %v, width 1 %v", n, threads, width, m, p, v, want[m][p])
						}
					}
				}
			})
		}
	}
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
		// diagonal leaves the pivots' reciprocals (factor5's) on the
		// diagonal; the oracle has the block's own pivots.
		got := d
		for e := 0; e < 25; e += 6 {
			got[e] = 1 / got[e]
		}
		check("diagonal", &got, &want)
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

// TestWavesCoverBandInDependencyOrder checks each worker's wavefront
// schedule on grids of class S, W and A at team sizes up to thirteen,
// more than class S's ten interior rows, so some bands are empty: every
// interior point of the band appears exactly once, no wave holds more
// than eight points or a point together with its i-1 or j-1 neighbour,
// every lower-sweep dependency inside the band sits in an earlier wave,
// every upper-sweep one (i+1, j+1) in a later wave, which the reversed
// order runs first, and the lanes after live repeat the last point.
func TestWavesCoverBandInDependencyOrder(t *testing.T) {
	for _, n := range []int{12, 33, 64} {
		for _, threads := range []int{1, 2, 3, 4, 7, 13} {
			for id := 0; id < threads; id++ {
				jlo, jhi := team.Block(1, n-1, threads, id)
				waves := newWaves(n, jlo, jhi)
				in := map[[2]int]int{} // point (i, j) -> its wave
				for g, w := range waves {
					if w.live < 1 || w.live > 8 {
						t.Fatalf("n=%d t%d worker %d: wave %d has %d points", n, threads, id, g, w.live)
					}
					for q, o := range w.at {
						if q >= int(w.live) {
							if o != w.at[w.live-1] {
								t.Fatalf("n=%d t%d worker %d: wave %d lane %d is %d, not the last point %d", n, threads, id, g, q, o, w.at[w.live-1])
							}
							continue
						}
						i, j := int(o)%n, int(o)/n
						if i < 1 || i > n-2 || j < jlo || j >= jhi {
							t.Fatalf("n=%d t%d worker %d: wave %d holds (%d, %d), outside rows %d-%d", n, threads, id, g, i, j, jlo, jhi-1)
						}
						if prev, ok := in[[2]int{i, j}]; ok {
							t.Fatalf("n=%d t%d worker %d: (%d, %d) in waves %d and %d", n, threads, id, i, j, prev, g)
						}
						in[[2]int{i, j}] = g
					}
				}
				if want := (n - 2) * (jhi - jlo); len(in) != want {
					t.Fatalf("n=%d t%d worker %d: %d points scheduled, band has %d", n, threads, id, len(in), want)
				}
				for p, g := range in {
					i, j := p[0], p[1]
					for _, d := range [][2]int{{i - 1, j}, {i, j - 1}} {
						if h, ok := in[d]; ok && h >= g {
							t.Fatalf("n=%d t%d worker %d: (%d, %d) in wave %d, its lower neighbour %v in wave %d", n, threads, id, i, j, g, d, h)
						}
					}
					for _, d := range [][2]int{{i + 1, j}, {i, j + 1}} {
						if h, ok := in[d]; ok && h <= g {
							t.Fatalf("n=%d t%d worker %d: (%d, %d) in wave %d, its upper neighbour %v in wave %d", n, threads, id, i, j, g, d, h)
						}
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
		if math.IsNaN(res.RsdNm[m]) || math.IsNaN(res.ErrNm[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
	if math.IsNaN(res.Frc) || res.Frc == 0 {
		t.Fatalf("suspicious surface integral %v", res.Frc)
	}
}

// TestLaneKernelsMatchScalar holds each generated lane kernel, the
// blocks and the update of a wave's eight points, to its scalar body,
// lane by lane and bit for bit, on random inputs with zeros of both
// signs, infinities, NaNs and subnormals among them (rowcheck.Lanes).
func TestLaneKernelsMatchScalar(t *testing.T) {
	rowcheck.Lanes(t, [][2]any{
		{couplingX8, couplingX}, {couplingY8, couplingY}, {couplingZ8, couplingZ}, {diagonal8, diagonal},
		{lowerStep8, lowerStep}, {upperStep8, upperStep},
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

// BenchmarkSweeps times one sweepsBody region, the lower and upper
// sweeps over the whole grid, at one thread, at class S and class W.
// Each op runs a whole SSOR step (the flow update, the right-hand side,
// the residual scaling, then the sweeps), so every region sweeps the
// rsd of a step of the run with the caches as a run leaves them; ns/op
// is that step. The region alone is clocked around its Team.Run and
// reported as ns/region and, per interior point and both sweeps
// together, ns/point. (b.StopTimer around the rest would read the
// memory statistics, stopping the world, twice an op of a region that
// lasts a few hundred microseconds.)
func BenchmarkSweeps(b *testing.B) {
	for _, class := range []byte{'S', 'W'} {
		b.Run(string(class), func(b *testing.B) {
			lub, err := New(class, 1, kernel.Env{})
			if err != nil {
				b.Fatal(err)
			}
			tm := team.New(1)
			defer tm.Close()
			lub.setbv()
			lub.setiv()
			lub.erhs(tm)
			lub.rhs(tm)
			lub.ensurePipe(tm)
			var region time.Duration
			b.ResetTimer()
			for range b.N {
				tm.Run(lub.updateBody)
				lub.rhs(tm)
				tm.Run(lub.scaleBody)
				start := time.Now()
				tm.Run(lub.sweepsBody)
				region += time.Since(start)
			}
			ns := float64(region.Nanoseconds()) / float64(b.N)
			inner := float64(lub.n - 2)
			b.ReportMetric(ns, "ns/region")
			b.ReportMetric(ns/(inner*inner*inner), "ns/point")
		})
	}
}
