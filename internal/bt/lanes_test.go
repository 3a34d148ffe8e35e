package bt

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/rowcheck"
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

// TestLaneKernelsMatchScalar holds each of the eight generated lane
// kernels to its scalar body, lane by lane and bit for bit, on random
// inputs with zeros of both signs in every lane (rowcheck.Lanes).
func TestLaneKernelsMatchScalar(t *testing.T) {
	rowcheck.Lanes(t, func(avx bool) { useAVX = avx }, laneModes(t), [][2]any{
		{binvcrhs4, binvcrhs}, {binvrhs4, binvrhs}, {matvecSub4, matvecSub}, {matmulSub4, matmulSub},
		{jacobiansX4, jacobiansX}, {jacobiansY4, jacobiansY}, {jacobiansZ4, jacobiansZ}, {assemble4, assemble},
	})
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
				check := func(what string, l, q int, got []float64, want *[25]float64) {
					t.Helper()
					sameBits(t, fmt.Sprintf("%c %c %s cell %d", class, "xyz"[d], what, l), q, got, want[:])
				}
				flush := func() {
					b.setupGroup(g, ds)
					for q := 0; q < g.n; q++ {
						for l := 0; l <= isize; l++ {
							check("lane fjac", l, q, rowcheck.Lane(g.fjac[l][:], q), &queued[q].fjac[l])
							check("lane njac", l, q, rowcheck.Lane(g.njac[l][:], q), &queued[q].njac[l])
						}
						for l := 1; l < isize; l++ {
							check("lane aa", l, q, rowcheck.Lane(g.aa[l][:], q), &queued[q].aa[l])
							check("lane bb", l, q, rowcheck.Lane(g.bb[l][:], q), &queued[q].bb[l])
							check("lane cc", l, q, rowcheck.Lane(g.cc[l][:], q), &queued[q].cc[l])
						}
					}
					g.n = 0
				}
				for o := 1; o < n-1; o++ {
					for a := 1; a < n-1; a++ {
						start := o*ds.outer + a*ds.inner
						for l := 0; l <= isize; l++ {
							p := start + l*ds.line
							b.buildJacobians(ls, l, p, ds.cv)
							u := [5]float64{b.f.U[0][p], b.f.U[1][p], b.f.U[2][p], b.f.U[3][p], b.f.U[4][p]}
							s := [3]float64{b.f.RhoI[p], b.f.Qs[p], b.f.Square[p]}
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
