package bt

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

// laneModes returns the lane paths this host can run: the portable one
// always, the AVX one where the CPU has it. Each test runs every mode
// with useAVX set accordingly and restores it.
func laneModes(t *testing.T) []bool {
	t.Cleanup(func() { useAVX = avxSupported() })
	if avxSupported() {
		return []bool{false, true}
	}
	t.Log("no AVX on this host: only the portable lane path runs")
	return []bool{false}
}

func sameBits(t *testing.T, what string, q int, got, want []float64) {
	t.Helper()
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("%s lane %d [%d] = %v (%#x), scalar %v (%#x)", what, q, e,
				got[e], math.Float64bits(got[e]), want[e], math.Float64bits(want[e]))
		}
	}
}

// laneFill fills every lane of every element with random values in
// [-0.5, 0.5), about one in eight of them +0 or -0.
func laneFill(rng *rand.Rand, rows ...[][4]float64) {
	for _, r := range rows {
		for e := range r {
			for q := range r[e] {
				switch rng.Intn(16) {
				case 0:
					r[e][q] = 0
				case 1:
					r[e][q] = math.Copysign(0, -1)
				default:
					r[e][q] = rng.Float64() - 0.5
				}
			}
		}
	}
}

// dominate adds 4 to the diagonal of every lane's block, as BT's
// blocks are diagonally dominant by construction.
func dominate(b *blk4) {
	for m := 0; m < 25; m += 6 {
		for q := range b[m] {
			b[m][q] += 4.0
		}
	}
}

// TestLaneKernelsMatchScalar runs each of the eight lane kernels on
// random inputs in four lanes, zeros of both signs and the Jacobians'
// structural zeros among them, and demands lane q of every array equal
// the scalar kernel on lane q's inputs, bit for bit.
func TestLaneKernelsMatchScalar(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	for _, avx := range laneModes(t) {
		useAVX = avx
		rng := rand.New(rand.NewSource(35))
		for trial := 0; trial < 200; trial++ {
			var blk, c, a, fm, fp, nm, nc, np blk4
			var r, r1 vec4
			laneFill(rng, blk[:], c[:], a[:], fm[:], fp[:], nm[:], nc[:], np[:], r[:], r1[:])
			dominate(&blk)

			gb, gc, gr := blk, c, r
			binvcrhs4(&gb, &gc, &gr)
			for q := 0; q < 4; q++ {
				sb, sc, sr := blk.lane(q), c.lane(q), r.lane(q)
				binvcrhs(&sb, &sc, &sr)
				gotB, gotC, gotR := gb.lane(q), gc.lane(q), gr.lane(q)
				sameBits(t, "binvcrhs blk", q, gotB[:], sb[:])
				sameBits(t, "binvcrhs c", q, gotC[:], sc[:])
				sameBits(t, "binvcrhs r", q, gotR[:], sr[:])
			}

			gb, gr = blk, r
			binvrhs4(&gb, &gr)
			for q := 0; q < 4; q++ {
				sb, sr := blk.lane(q), r.lane(q)
				binvrhs(&sb, &sr)
				gotB, gotR := gb.lane(q), gr.lane(q)
				sameBits(t, "binvrhs blk", q, gotB[:], sb[:])
				sameBits(t, "binvrhs r", q, gotR[:], sr[:])
			}

			gr = r
			matvecSub4(&a, &r1, &gr)
			for q := 0; q < 4; q++ {
				sa, s1, sr := a.lane(q), r1.lane(q), r.lane(q)
				matvecSub(&sa, &s1, &sr)
				got := gr.lane(q)
				sameBits(t, "matvecSub", q, got[:], sr[:])
			}

			gc = c
			matmulSub4(&a, &blk, &gc)
			for q := 0; q < 4; q++ {
				sa, sb, sc := a.lane(q), blk.lane(q), c.lane(q)
				matmulSub(&sa, &sb, &sc)
				got := gc.lane(q)
				sameBits(t, "matmulSub", q, got[:], sc[:])
			}

			// A point state: rho > 0, the scalars as ComputeRHS forms
			// them, momenta (zeros of both signs among them) random.
			var u vec4
			var s pt4
			laneFill(rng, u[:])
			for q := 0; q < 4; q++ {
				u[0][q] = 1 + rng.Float64()
				s[0][q] = 1.0 / u[0][q]
				s[2][q] = 0.5 * (u[1][q]*u[1][q] + u[2][q]*u[2][q] + u[3][q]*u[3][q]) * s[0][q]
				s[1][q] = s[2][q] * s[0][q]
			}
			for d := range b.dirs {
				ds := b.dirs[d]
				var gf, gn blk4
				jacobians4(&gf, &gn, &u, &s, &ds)
				for q := 0; q < 4; q++ {
					var sf, sn [25]float64
					su, ss := u.lane(q), s.lane(q)
					[]func(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64){
						jacobiansX, jacobiansY, jacobiansZ,
					}[d](&sf, &sn, &su, &ss, ds.jac.c1, ds.jac.c2, ds.jac.c3c4, ds.jac.r43, ds.jac.c1345)
					gotF, gotN := gf.lane(q), gn.lane(q)
					sameBits(t, "jacobians fjac", q, gotF[:], sf[:])
					sameBits(t, "jacobians njac", q, gotN[:], sn[:])
				}
				// Feed the Jacobians, structural zeros and all, to
				// assemble as well as the random blocks.
				for _, in := range [][5]*blk4{{&fm, &fp, &nm, &nc, &np}, {&gf, &gf, &gn, &gn, &gn}} {
					var ga, gbb, gcc blk4
					assemble4(&ga, &gbb, &gcc, in[0], in[1], in[2], in[3], in[4], &ds)
					for q := 0; q < 4; q++ {
						var sa, sb, sc [25]float64
						sfm, sfp, snm, snc, snp := in[0].lane(q), in[1].lane(q), in[2].lane(q), in[3].lane(q), in[4].lane(q)
						assemble(&sa, &sb, &sc, &sfm, &sfp, &snm, &snc, &snp, ds.mt2, ds.t1, ds.t12, ds.t2,
							ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4], ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
						gotA, gotB, gotC := ga.lane(q), gbb.lane(q), gcc.lane(q)
						sameBits(t, "assemble aa", q, gotA[:], sa[:])
						sameBits(t, "assemble bb", q, gotB[:], sb[:])
						sameBits(t, "assemble cc", q, gotC[:], sc[:])
					}
				}
			}
		}
	}
}

// TestLineSetupMatchesOracle holds the new line set-up to the old one
// (bt_test.go's oracle: nscore.FluxViscJacobians and assembleLHS) on
// the S and W fields after three ADI steps, at every cell of every
// xi, eta and zeta line: the scalar kernels line by line, and the lane
// path four lines at a time, a short group at the end of each plane. Every entry
// of fjac, njac, aa, bb and cc must have the oracle's bits, the sign of
// each zero included.
func TestLineSetupMatchesOracle(t *testing.T) {
	for _, class := range []byte{'S', 'W'} {
		b, err := New(class, 1, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		tm := team.New(1)
		b.f.Initialize(&b.c)
		b.f.ExactRHS(&b.c)
		for s := 0; s < 3; s++ {
			b.adi(tm)
		}
		b.f.ComputeRHS(&b.c, tm) // the scalars a solve sees
		tm.Close()

		c, n := &b.c, b.n
		isize := n - 1
		oracle := [3]oracleDir{
			{c.Dt * c.Tx1, c.Dt * c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}},
			{c.Dt * c.Ty1, c.Dt * c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}},
			{c.Dt * c.Tz1, c.Dt * c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}},
		}
		jac := [3]func(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64){
			jacobiansX, jacobiansY, jacobiansZ,
		}
		for _, avx := range laneModes(t) {
			useAVX = avx
			for d := range b.dirs {
				ds := &b.dirs[d]
				// Fresh blocks: the oracle's Jacobians are cleared once
				// per direction, as the old region bodies did.
				ls := newLineScratch(n)
				fj, nj := make([][25]float64, n), make([][25]float64, n)
				aa, bb, cc := make([][25]float64, n), make([][25]float64, n), make([][25]float64, n)
				g := newGroup(n)
				var queued [4]*lineScratch
				check := func(what string, l, q int, got [25]float64, want *[25]float64) {
					t.Helper()
					sameBits(t, fmt.Sprintf("%c %c %s cell %d", class, "xyz"[d], what, l), q, got[:], want[:])
				}
				flush := func() {
					b.setupGroup(g, ds)
					for q := 0; q < g.n; q++ {
						for l := 0; l <= isize; l++ {
							check("lane fjac", l, q, g.fjac[l].lane(q), &queued[q].fjac[l])
							check("lane njac", l, q, g.njac[l].lane(q), &queued[q].njac[l])
						}
						for l := 1; l < isize; l++ {
							check("lane aa", l, q, g.aa[l].lane(q), &queued[q].aa[l])
							check("lane bb", l, q, g.bb[l].lane(q), &queued[q].bb[l])
							check("lane cc", l, q, g.cc[l].lane(q), &queued[q].cc[l])
						}
					}
					g.n = 0
				}
				for o := 1; o < n-1; o++ {
					for a := 1; a < n-1; a++ {
						start := o*ds.outer + a*ds.inner
						for l := 0; l <= isize; l++ {
							p := start + l*ds.line
							b.buildJacobians(ls, l, 5*p, p, ds.cv)
							u := [5]float64{b.f.U[5*p], b.f.U[5*p+1], b.f.U[5*p+2], b.f.U[5*p+3], b.f.U[5*p+4]}
							s := [3]float64{b.f.RhoI[p], b.f.Qs[p], b.f.Square[p]}
							jac[d](&fj[l], &nj[l], &u, &s, ds.jac.c1, ds.jac.c2, ds.jac.c3c4, ds.jac.r43, ds.jac.c1345)
							check("fjac", l, 0, fj[l], &ls.fjac[l])
							check("njac", l, 0, nj[l], &ls.njac[l])
						}
						b.assembleLHS(ls, isize, &oracle[d])
						for l := 1; l < isize; l++ {
							assemble(&aa[l], &bb[l], &cc[l], &fj[l-1], &fj[l+1], &nj[l-1], &nj[l], &nj[l+1],
								ds.mt2, ds.t1, ds.t12, ds.t2, ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4],
								ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
							check("aa", l, 0, aa[l], &ls.aa[l])
							check("bb", l, 0, bb[l], &ls.bb[l])
							check("cc", l, 0, cc[l], &ls.cc[l])
						}

						snap := newLineScratch(n)
						copy(snap.fjac, ls.fjac)
						copy(snap.njac, ls.njac)
						copy(snap.aa, ls.aa)
						copy(snap.bb, ls.bb)
						copy(snap.cc, ls.cc)
						queued[g.n] = snap
						g.start[g.n] = start
						g.n++
						if g.n == 4 {
							flush()
						}
					}
					// n-2 lines a plane is 2 more than a multiple of 4
					// at S and W: end each plane with a short group.
					if g.n > 0 {
						flush()
					}
				}
			}
		}
	}
}

// TestPortableLanesReproduceGolden runs BT.S on the portable lane path
// (each lane through the scalar kernels, what an amd64 CPU without AVX
// runs) at one and two threads and compares the verification printout
// with the one recorded in testdata/bitidentity.golden. Other
// architectures run the same scalar Go, but gc may fuse x*y + z there,
// so this pins their bits only where it runs.
func TestPortableLanesReproduceGolden(t *testing.T) {
	data, err := os.ReadFile("../../testdata/bitidentity.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "== BT.S\n")
	if !ok {
		t.Fatal("no BT.S block in the golden file")
	}
	want, _, _ := strings.Cut(rest, "\n== ")
	want += "\n"

	laneModes(t)
	useAVX = false
	for _, threads := range []int{1, 2} {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if got := b.RunResult().Verify.String(); got != want {
			t.Errorf("BT.S at %d threads on the portable lane path:\n%s\nrecorded:\n%s", threads, got, want)
		}
	}
}
