package lu

import (
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
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
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					b.u[off+m] = ue[m]
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
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					if a := math.Abs(b.rsd[off+m]); a > worst {
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
	ws := newSweepScratch(b.n)
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
			k.couplingX(&ws.ax, &u, sign)
			k.couplingY(&ws.ay, &u, sign)
			k.couplingZ(&ws.az, &u, sign)
			for cv, got := range [3]*[25]float64{&ws.ax, &ws.ay, &ws.az} {
				want := oracleCoupling(&b.c, &u, cv+1, sign)
				check("coupling", got, &want)
			}
		}
		k.diagonal(&ws.d, &u)
		want := oracleDiagonal(&b.c, &u)
		check("diagonal", &ws.d, &want)
		// The sweeps solve on the diagonal block in place before it is
		// refilled; that must not disturb its zeros either.
		solve5(&ws.d, &ws.tv)
	}
}

// TestOperatorMatchesOracle holds operatorPlanes to the per-direction
// bodies it replaced, on both of applyOperator's paths — rhs (out =
// rsd, starting from -frct; w = u) and erhs (out = frct, starting from
// zero; w = the exact solution erhs leaves in rsd) — at S and W, over
// whole and partial plane ranges. Every element of out, those the
// range does not own included, must agree bit for bit.
func TestOperatorMatchesOracle(t *testing.T) {
	for _, class := range []byte{'S', 'W'} {
		b, err := New(class, 1, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		tm := team.New(1)
		b.setbv()
		b.setiv()
		b.erhs(tm)
		tm.Close()
		n := b.n
		rsd0 := make([]float64, len(b.frct))
		for e := range rsd0 {
			rsd0[e] = -b.frct[e]
		}
		paths := []struct {
			name   string
			out, w []float64
		}{
			{"rhs", rsd0, b.u},
			{"erhs", make([]float64, len(b.frct)), b.rsd},
		}
		oracles := [3]func(out, w, flux []float64, lo, hi int){b.xiFluxRange, b.etaFluxRange, b.zetaFluxRange}
		oflux := make([]float64, 5*n)
		flux := make([][5]float64, n)
		for _, p := range paths {
			for dir, oracle := range oracles {
				for _, r := range [][2]int{{1, n - 1}, {1, 2}, {n / 2, n/2 + 1}, {2, n - 2}} {
					want := append([]float64(nil), p.out...)
					got := append([]float64(nil), p.out...)
					oracle(want, p.w, oflux, r[0], r[1])
					b.operatorPlanes(got, p.w, flux, &b.ops[dir], r[0], r[1])
					for e := range want {
						if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
							t.Fatalf("%c %s direction %d planes [%d,%d): out[%d] = %v, oracle %v",
								class, p.name, dir, r[0], r[1], e, got[e], want[e])
						}
					}
				}
			}
		}
	}
}

// The three per-direction operator bodies and the closure-and-switch
// dissipation that operatorPlanes, operatorLine and nscore.Dissip
// replaced, kept as the oracle of TestOperatorMatchesOracle.

// xiFluxRange applies the xi-direction operator terms on planes
// [klo, khi) using the caller's 5*n flux line scratch.
func (b *Benchmark) xiFluxRange(out, w, flux []float64, klo, khi int) {
	n := b.n
	c := &b.c
	for k := klo; k < khi; k++ {
		for j := 1; j < n-1; j++ {
			for i := 0; i < n; i++ {
				off := b.at(i, j, k)
				u21 := w[off+1] / w[off]
				q := 0.5 * (w[off+1]*w[off+1] + w[off+2]*w[off+2] + w[off+3]*w[off+3]) / w[off]
				flux[5*i+0] = w[off+1]
				flux[5*i+1] = w[off+1]*u21 + c.C2*(w[off+4]-q)
				flux[5*i+2] = w[off+2] * u21
				flux[5*i+3] = w[off+3] * u21
				flux[5*i+4] = (c.C1*w[off+4] - c.C2*q) * u21
			}
			for i := 1; i < n-1; i++ {
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					out[off+m] -= c.Tx2 * (flux[5*(i+1)+m] - flux[5*(i-1)+m])
				}
			}
			for i := 1; i < n; i++ {
				off := b.at(i, j, k)
				offm := b.at(i-1, j, k)
				tmp := 1.0 / w[off]
				u21i, u31i, u41i, u51i := tmp*w[off+1], tmp*w[off+2], tmp*w[off+3], tmp*w[off+4]
				tmp = 1.0 / w[offm]
				u21im1, u31im1, u41im1, u51im1 := tmp*w[offm+1], tmp*w[offm+2], tmp*w[offm+3], tmp*w[offm+4]
				flux[5*i+1] = (4.0 / 3.0) * c.Tx3 * (u21i - u21im1)
				flux[5*i+2] = c.Tx3 * (u31i - u31im1)
				flux[5*i+3] = c.Tx3 * (u41i - u41im1)
				flux[5*i+4] = 0.5*(1.0-c.C1c5)*c.Tx3*
					((u21i*u21i+u31i*u31i+u41i*u41i)-(u21im1*u21im1+u31im1*u31im1+u41im1*u41im1)) +
					(1.0/6.0)*c.Tx3*(u21i*u21i-u21im1*u21im1) +
					c.C1c5*c.Tx3*(u51i-u51im1)
			}
			for i := 1; i < n-1; i++ {
				off := b.at(i, j, k)
				om := b.at(i-1, j, k)
				op := b.at(i+1, j, k)
				out[off+0] += c.Dx1 * c.Tx1 * (w[om+0] - 2.0*w[off+0] + w[op+0])
				out[off+1] += c.Tx3*c.C3*c.C4*(flux[5*(i+1)+1]-flux[5*i+1]) +
					c.Dx2*c.Tx1*(w[om+1]-2.0*w[off+1]+w[op+1])
				out[off+2] += c.Tx3*c.C3*c.C4*(flux[5*(i+1)+2]-flux[5*i+2]) +
					c.Dx3*c.Tx1*(w[om+2]-2.0*w[off+2]+w[op+2])
				out[off+3] += c.Tx3*c.C3*c.C4*(flux[5*(i+1)+3]-flux[5*i+3]) +
					c.Dx4*c.Tx1*(w[om+3]-2.0*w[off+3]+w[op+3])
				out[off+4] += c.Tx3*c.C3*c.C4*(flux[5*(i+1)+4]-flux[5*i+4]) +
					c.Dx5*c.Tx1*(w[om+4]-2.0*w[off+4]+w[op+4])
			}
			b.dissip(out, w, 0, j, k)
		}
	}
}

// etaFluxRange applies the eta-direction operator terms on planes
// [klo, khi).
func (b *Benchmark) etaFluxRange(out, w, flux []float64, klo, khi int) {
	n := b.n
	c := &b.c
	for k := klo; k < khi; k++ {
		for i := 1; i < n-1; i++ {
			for j := 0; j < n; j++ {
				off := b.at(i, j, k)
				u31 := w[off+2] / w[off]
				q := 0.5 * (w[off+1]*w[off+1] + w[off+2]*w[off+2] + w[off+3]*w[off+3]) / w[off]
				flux[5*j+0] = w[off+2]
				flux[5*j+1] = w[off+1] * u31
				flux[5*j+2] = w[off+2]*u31 + c.C2*(w[off+4]-q)
				flux[5*j+3] = w[off+3] * u31
				flux[5*j+4] = (c.C1*w[off+4] - c.C2*q) * u31
			}
			for j := 1; j < n-1; j++ {
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					out[off+m] -= c.Ty2 * (flux[5*(j+1)+m] - flux[5*(j-1)+m])
				}
			}
			for j := 1; j < n; j++ {
				off := b.at(i, j, k)
				offm := b.at(i, j-1, k)
				tmp := 1.0 / w[off]
				u21j, u31j, u41j, u51j := tmp*w[off+1], tmp*w[off+2], tmp*w[off+3], tmp*w[off+4]
				tmp = 1.0 / w[offm]
				u21jm1, u31jm1, u41jm1, u51jm1 := tmp*w[offm+1], tmp*w[offm+2], tmp*w[offm+3], tmp*w[offm+4]
				flux[5*j+1] = c.Ty3 * (u21j - u21jm1)
				flux[5*j+2] = (4.0 / 3.0) * c.Ty3 * (u31j - u31jm1)
				flux[5*j+3] = c.Ty3 * (u41j - u41jm1)
				flux[5*j+4] = 0.5*(1.0-c.C1c5)*c.Ty3*
					((u21j*u21j+u31j*u31j+u41j*u41j)-(u21jm1*u21jm1+u31jm1*u31jm1+u41jm1*u41jm1)) +
					(1.0/6.0)*c.Ty3*(u31j*u31j-u31jm1*u31jm1) +
					c.C1c5*c.Ty3*(u51j-u51jm1)
			}
			for j := 1; j < n-1; j++ {
				off := b.at(i, j, k)
				om := b.at(i, j-1, k)
				op := b.at(i, j+1, k)
				out[off+0] += c.Dy1 * c.Ty1 * (w[om+0] - 2.0*w[off+0] + w[op+0])
				out[off+1] += c.Ty3*c.C3*c.C4*(flux[5*(j+1)+1]-flux[5*j+1]) +
					c.Dy2*c.Ty1*(w[om+1]-2.0*w[off+1]+w[op+1])
				out[off+2] += c.Ty3*c.C3*c.C4*(flux[5*(j+1)+2]-flux[5*j+2]) +
					c.Dy3*c.Ty1*(w[om+2]-2.0*w[off+2]+w[op+2])
				out[off+3] += c.Ty3*c.C3*c.C4*(flux[5*(j+1)+3]-flux[5*j+3]) +
					c.Dy4*c.Ty1*(w[om+3]-2.0*w[off+3]+w[op+3])
				out[off+4] += c.Ty3*c.C3*c.C4*(flux[5*(j+1)+4]-flux[5*j+4]) +
					c.Dy5*c.Ty1*(w[om+4]-2.0*w[off+4]+w[op+4])
			}
			b.dissip(out, w, 1, i, k)
		}
	}
}

// zetaFluxRange applies the zeta-direction operator terms on j-rows
// [jlo, jhi) (the line runs along k).
func (b *Benchmark) zetaFluxRange(out, w, flux []float64, jlo, jhi int) {
	n := b.n
	c := &b.c
	for j := jlo; j < jhi; j++ {
		for i := 1; i < n-1; i++ {
			for k := 0; k < n; k++ {
				off := b.at(i, j, k)
				u41 := w[off+3] / w[off]
				q := 0.5 * (w[off+1]*w[off+1] + w[off+2]*w[off+2] + w[off+3]*w[off+3]) / w[off]
				flux[5*k+0] = w[off+3]
				flux[5*k+1] = w[off+1] * u41
				flux[5*k+2] = w[off+2] * u41
				flux[5*k+3] = w[off+3]*u41 + c.C2*(w[off+4]-q)
				flux[5*k+4] = (c.C1*w[off+4] - c.C2*q) * u41
			}
			for k := 1; k < n-1; k++ {
				off := b.at(i, j, k)
				for m := 0; m < 5; m++ {
					out[off+m] -= c.Tz2 * (flux[5*(k+1)+m] - flux[5*(k-1)+m])
				}
			}
			for k := 1; k < n; k++ {
				off := b.at(i, j, k)
				offm := b.at(i, j, k-1)
				tmp := 1.0 / w[off]
				u21k, u31k, u41k, u51k := tmp*w[off+1], tmp*w[off+2], tmp*w[off+3], tmp*w[off+4]
				tmp = 1.0 / w[offm]
				u21km1, u31km1, u41km1, u51km1 := tmp*w[offm+1], tmp*w[offm+2], tmp*w[offm+3], tmp*w[offm+4]
				flux[5*k+1] = c.Tz3 * (u21k - u21km1)
				flux[5*k+2] = c.Tz3 * (u31k - u31km1)
				flux[5*k+3] = (4.0 / 3.0) * c.Tz3 * (u41k - u41km1)
				flux[5*k+4] = 0.5*(1.0-c.C1c5)*c.Tz3*
					((u21k*u21k+u31k*u31k+u41k*u41k)-(u21km1*u21km1+u31km1*u31km1+u41km1*u41km1)) +
					(1.0/6.0)*c.Tz3*(u41k*u41k-u41km1*u41km1) +
					c.C1c5*c.Tz3*(u51k-u51km1)
			}
			for k := 1; k < n-1; k++ {
				off := b.at(i, j, k)
				om := b.at(i, j, k-1)
				op := b.at(i, j, k+1)
				out[off+0] += c.Dz1 * c.Tz1 * (w[om+0] - 2.0*w[off+0] + w[op+0])
				out[off+1] += c.Tz3*c.C3*c.C4*(flux[5*(k+1)+1]-flux[5*k+1]) +
					c.Dz2*c.Tz1*(w[om+1]-2.0*w[off+1]+w[op+1])
				out[off+2] += c.Tz3*c.C3*c.C4*(flux[5*(k+1)+2]-flux[5*k+2]) +
					c.Dz3*c.Tz1*(w[om+2]-2.0*w[off+2]+w[op+2])
				out[off+3] += c.Tz3*c.C3*c.C4*(flux[5*(k+1)+3]-flux[5*k+3]) +
					c.Dz4*c.Tz1*(w[om+3]-2.0*w[off+3]+w[op+3])
				out[off+4] += c.Tz3*c.C3*c.C4*(flux[5*(k+1)+4]-flux[5*k+4]) +
					c.Dz5*c.Tz1*(w[om+4]-2.0*w[off+4]+w[op+4])
			}
			b.dissip(out, w, 2, i, j)
		}
	}
}

// dissip subtracts the boundary-adjusted fourth-difference dissipation
// of w from out along one grid line of direction dir (0 = xi at
// (j,k)=(a,bb), 1 = eta at (i,k)=(a,bb), 2 = zeta at (i,j)=(a,bb)).
func (b *Benchmark) dissip(out, w []float64, dir, a, bb int) {
	n := b.n
	dssp := b.c.Dssp
	at := func(l int) int {
		switch dir {
		case 0:
			return b.at(l, a, bb)
		case 1:
			return b.at(a, l, bb)
		default:
			return b.at(a, bb, l)
		}
	}
	for m := 0; m < 5; m++ {
		l := 1
		out[at(l)+m] -= dssp * (5.0*w[at(l)+m] - 4.0*w[at(l+1)+m] + w[at(l+2)+m])
		l = 2
		out[at(l)+m] -= dssp * (-4.0*w[at(l-1)+m] + 6.0*w[at(l)+m] - 4.0*w[at(l+1)+m] + w[at(l+2)+m])
		for l = 3; l <= n-4; l++ {
			out[at(l)+m] -= dssp * (w[at(l-2)+m] - 4.0*w[at(l-1)+m] + 6.0*w[at(l)+m] - 4.0*w[at(l+1)+m] + w[at(l+2)+m])
		}
		l = n - 3
		out[at(l)+m] -= dssp * (w[at(l-2)+m] - 4.0*w[at(l-1)+m] + 6.0*w[at(l)+m] - 4.0*w[at(l+1)+m])
		l = n - 2
		out[at(l)+m] -= dssp * (w[at(l-2)+m] - 4.0*w[at(l-1)+m] + 5.0*w[at(l)+m])
	}
}

func TestSetbvExactOnFaces(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	b.setbv()
	var ue [5]float64
	n := b.n
	for _, p := range [][3]int{{0, 5, 6}, {n - 1, 5, 6}, {5, 0, 6}, {5, n - 1, 6}, {5, 6, 0}, {5, 6, n - 1}} {
		b.exactAt(p[0], p[1], p[2], &ue)
		off := b.at(p[0], p[1], p[2])
		for m := 0; m < 5; m++ {
			if b.u[off+m] != ue[m] {
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
	r0 := b.l2norm(b.rsd)
	// Run a shortened SSOR loop manually.
	b.itmax = 10
	b.ssor(tm)
	r1 := b.l2norm(b.rsd)
	for m := 0; m < 5; m++ {
		if !(r1[m] < r0[m]) {
			t.Fatalf("component %d residual did not decrease: %v -> %v", m, r0[m], r1[m])
		}
	}
}

// ssorField runs steps SSOR iterations of class S on the given team
// shape and returns the flow field.
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
	return b.u
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

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('D', 1, kernel.Env{}); err == nil {
		t.Fatal("class D accepted")
	}
	if _, err := New('S', 0, kernel.Env{}); err == nil {
		t.Fatal("zero threads accepted")
	}
}
