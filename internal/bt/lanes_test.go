package bt

import (
	"fmt"
	"math"
	"testing"
	"unsafe"

	"npbgo/internal/kernel"
	"npbgo/internal/rowcheck"
	"npbgo/internal/team"
)

func sameBits(t *testing.T, what string, q int, got, want []float64) {
	t.Helper()
	for e := range want {
		if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
			t.Fatalf("%s lane %d [%d] = %v (%#x), scalar %v (%#x)", what, q, e,
				got[e], math.Float64bits(got[e]), want[e], math.Float64bits(want[e]))
		}
	}
}

// TestLaneKernelsMatchScalar holds each of the eight generated lane
// kernels to its scalar body, lane by lane and bit for bit, on random
// inputs with zeros of both signs, infinities, NaNs and subnormals among
// them (rowcheck.Lanes).
func TestLaneKernelsMatchScalar(t *testing.T) {
	rowcheck.Lanes(t, [][2]any{
		{binvcrhs8, binvcrhs}, {binvrhs8, binvrhs}, {matvecSub8, matvecSub}, {matmulSub8, matmulSub},
		{jacobiansX8, jacobiansX}, {jacobiansY8, jacobiansY}, {jacobiansZ8, jacobiansZ}, {assemble8, assemble},
	})
}

// TestLineSetupMatchesOracle holds the new line set-up to the old one
// (bt_test.go's oracle: nscore.FluxViscJacobians and assembleLHS) on
// the S and W fields after three ADI steps, at every cell of every
// xi, eta and zeta line: the scalar kernels line by line, and the lane
// path eight lines at a time, cell by cell as solveGroup builds them
// (cellJacobians, then assembleCell one cell behind), a short group at
// the end of each plane. Every entry
// of fjac, njac, aa, bb and cc must have the oracle's bits, the sign of
// each zero included.
func TestLineSetupMatchesOracle(t *testing.T) {
	for _, class := range []byte{'S', 'W'} {
		b, err := New(class, 1, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		tm := team.New(1)
		b.F.Initialize(&b.C)
		b.F.ExactRHS(&b.C)
		for s := 0; s < 3; s++ {
			b.Iter(tm)
		}
		b.F.ComputeRHS(&b.C, tm) // the scalars a solve sees
		tm.Close()

		c, n := &b.C, b.N
		isize := n - 1
		// The strides of the lines of a plane and of the planes, as
		// nscore.App's sweeps queue them.
		strides := [3]struct{ inner, outer int }{{n, n * n}, {1, n * n}, {1, n}}
		oracle := [3]oracleDir{
			{c.Dt * c.Tx1, c.Dt * c.Tx2, [5]float64{c.Dx1, c.Dx2, c.Dx3, c.Dx4, c.Dx5}},
			{c.Dt * c.Ty1, c.Dt * c.Ty2, [5]float64{c.Dy1, c.Dy2, c.Dy3, c.Dy4, c.Dy5}},
			{c.Dt * c.Tz1, c.Dt * c.Tz2, [5]float64{c.Dz1, c.Dz2, c.Dz3, c.Dz4, c.Dz5}},
		}
		jac := [3]func(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64){
			jacobiansX, jacobiansY, jacobiansZ,
		}
		rowcheck.Modes(t, func(int) {
			for d := range b.dirs {
				ds := &b.dirs[d]
				// Fresh blocks: the oracle's Jacobians are cleared once
				// per direction, as the old region bodies did.
				ls := newLineScratch(n)
				fj, nj := make([][25]float64, n), make([][25]float64, n)
				aa, bb, cc := make([][25]float64, n), make([][25]float64, n), make([][25]float64, n)
				g := newGroup(n)
				g.Stride = [3]int{1, n, n * n}[d] // as nscore.App's sweeps queue them
				var queued [8]*lineScratch
				check := func(what string, l, q int, got []float64, want *[25]float64) {
					t.Helper()
					sameBits(t, fmt.Sprintf("%c %c %s cell %d", class, "xyz"[d], what, l), q, got, want[:])
				}
				flush := func() {
					for l := 0; l <= isize; l++ {
						b.cellJacobians(g, ds, l)
						for q := 0; q < g.N; q++ {
							check("lane fjac", l, q, rowcheck.Lane(g.fjac[l%3][:], q), &queued[q].fjac[l])
							check("lane njac", l, q, rowcheck.Lane(g.njac[l%3][:], q), &queued[q].njac[l])
						}
						if c := l - 1; c >= 1 {
							g.assembleCell(ds, c)
							for q := 0; q < g.N; q++ {
								check("lane aa", c, q, rowcheck.Lane(g.aa[:], q), &queued[q].aa[c])
								check("lane bb", c, q, rowcheck.Lane(g.bb[:], q), &queued[q].bb[c])
								check("lane cc", c, q, rowcheck.Lane(g.cc[c][:], q), &queued[q].cc[c])
							}
						}
					}
					g.N = 0
				}
				for o := 1; o < n-1; o++ {
					for a := 1; a < n-1; a++ {
						start := o*strides[d].outer + a*strides[d].inner
						for l := 0; l <= isize; l++ {
							p := start + l*g.Stride
							b.buildJacobians(ls, l, p, ds.cv)
							u := [5]float64{b.F.U[0][p], b.F.U[1][p], b.F.U[2][p], b.F.U[3][p], b.F.U[4][p]}
							s := [3]float64{b.F.RhoI[p], b.F.Qs[p], b.F.Square[p]}
							jac[d](&fj[l], &nj[l], &u, &s, ds.jac.c1, ds.jac.c2, ds.jac.c3c4, ds.jac.r43, ds.jac.c1345)
							check("fjac", l, 0, fj[l][:], &ls.fjac[l])
							check("njac", l, 0, nj[l][:], &ls.njac[l])
						}
						b.assembleLHS(ls, isize, &oracle[d])
						for l := 1; l < isize; l++ {
							assemble(&aa[l], &bb[l], &cc[l], &fj[l-1], &fj[l+1], &nj[l-1], &nj[l], &nj[l+1],
								ds.mt2, ds.t1, ds.t12, ds.t2, ds.dm[0], ds.dm[1], ds.dm[2], ds.dm[3], ds.dm[4],
								ds.bm[0], ds.bm[1], ds.bm[2], ds.bm[3], ds.bm[4])
							check("aa", l, 0, aa[l][:], &ls.aa[l])
							check("bb", l, 0, bb[l][:], &ls.bb[l])
							check("cc", l, 0, cc[l][:], &ls.cc[l])
						}

						snap := newLineScratch(n)
						copy(snap.fjac, ls.fjac)
						copy(snap.njac, ls.njac)
						copy(snap.aa, ls.aa)
						copy(snap.bb, ls.bb)
						copy(snap.cc, ls.cc)
						queued[g.N] = snap
						g.Start[g.N] = start
						g.N++
						if g.N == 8 {
							flush()
						}
					}
					// n-2 lines a plane is 2 or 6 more than a multiple
					// of 8 at S and W: end each plane with a short group.
					if g.N > 0 {
						flush()
					}
				}
			}
		})
	}
}

// TestPortableLanesReproduceGolden runs BT.S on the portable path
// (simd.Width 1) and the AVX one (4) at one and two threads and compares the
// verification printout with the one recorded in
// testdata/bitidentity.golden (rowcheck.Golden).
func TestPortableLanesReproduceGolden(t *testing.T) {
	rowcheck.Golden(t, "BT", func(threads int) string {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return b.RunResult().Verify.String()
	})
}

// TestGroupAligned checks that every lane-form element of a group
// starts on a 64-byte cache line, where one AVX-512 load reads it.
func TestGroupAligned(t *testing.T) {
	for _, n := range []int{12, 24, 64} {
		g := newGroup(n)
		for name, p := range map[string]unsafe.Pointer{
			"fjac": unsafe.Pointer(&g.fjac), "njac": unsafe.Pointer(&g.njac), "aa": unsafe.Pointer(&g.aa),
			"bb": unsafe.Pointer(&g.bb), "state": unsafe.Pointer(&g.state),
			"cc": unsafe.Pointer(&g.cc[0]), "rhs": unsafe.Pointer(&g.rhs[0]),
		} {
			if a := uintptr(p) % 64; a != 0 {
				t.Errorf("n=%d: %s starts %d bytes into a cache line", n, name, a)
			}
		}
	}
}
