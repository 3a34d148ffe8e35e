package mg

import (
	"fmt"
	"math"
	"testing"

	"npbgo/internal/randdp"
	"npbgo/internal/rowcheck"
)

// The four oracles are the stencil bodies the carried-window forms
// replaced, kept as the reference for their bits: mg.f's loops with the
// temporaries stored in scratch rows and every point addressed through
// level.at.

func oracleResid(r, u, v []float64, l level, a *[4]float64, k0, k1 int) {
	n1, n2 := l.n1, l.n2
	u1, u2 := make([]float64, n1), make([]float64, n1)
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < n2-1; i2++ {
			c := l.at(0, i2, i3)
			cm2 := l.at(0, i2-1, i3)
			cp2 := l.at(0, i2+1, i3)
			cm3 := l.at(0, i2, i3-1)
			cp3 := l.at(0, i2, i3+1)
			cmm := l.at(0, i2-1, i3-1)
			cpm := l.at(0, i2+1, i3-1)
			cmp := l.at(0, i2-1, i3+1)
			cpp := l.at(0, i2+1, i3+1)
			for i1 := 0; i1 < n1; i1++ {
				u1[i1] = u[cm2+i1] + u[cp2+i1] + u[cm3+i1] + u[cp3+i1]
				u2[i1] = u[cmm+i1] + u[cpm+i1] + u[cmp+i1] + u[cpp+i1]
			}
			for i1 := 1; i1 < n1-1; i1++ {
				r[c+i1] = v[c+i1] -
					a[0]*u[c+i1] -
					a[2]*(u2[i1]+u1[i1-1]+u1[i1+1]) -
					a[3]*(u2[i1-1]+u2[i1+1])
			}
		}
	}
}

func oraclePsinv(r, u []float64, l level, c *[4]float64, k0, k1 int) {
	n1, n2 := l.n1, l.n2
	r1, r2 := make([]float64, n1), make([]float64, n1)
	for i3 := k0; i3 < k1; i3++ {
		for i2 := 1; i2 < n2-1; i2++ {
			cc := l.at(0, i2, i3)
			cm2 := l.at(0, i2-1, i3)
			cp2 := l.at(0, i2+1, i3)
			cm3 := l.at(0, i2, i3-1)
			cp3 := l.at(0, i2, i3+1)
			cmm := l.at(0, i2-1, i3-1)
			cpm := l.at(0, i2+1, i3-1)
			cmp := l.at(0, i2-1, i3+1)
			cpp := l.at(0, i2+1, i3+1)
			for i1 := 0; i1 < n1; i1++ {
				r1[i1] = r[cm2+i1] + r[cp2+i1] + r[cm3+i1] + r[cp3+i1]
				r2[i1] = r[cmm+i1] + r[cpm+i1] + r[cmp+i1] + r[cpp+i1]
			}
			for i1 := 1; i1 < n1-1; i1++ {
				u[cc+i1] += c[0]*r[cc+i1] +
					c[1]*(r[cc+i1-1]+r[cc+i1+1]+r1[i1]) +
					c[2]*(r2[i1]+r1[i1-1]+r1[i1+1])
			}
		}
	}
}

func oracleRprj3(r []float64, lk level, s []float64, lj level, j3lo, j3hi int) {
	d1, d2, d3 := 1, 1, 1
	if lk.n1 == 3 {
		d1 = 2
	}
	if lk.n2 == 3 {
		d2 = 2
	}
	if lk.n3 == 3 {
		d3 = 2
	}
	m1j, m2j := lj.n1, lj.n2
	x1, y1 := make([]float64, lk.n1), make([]float64, lk.n1)
	for j3 := j3lo; j3 < j3hi; j3++ {
		i3 := 2*(j3+1) - d3 - 1
		for j2 := 1; j2 < m2j-1; j2++ {
			i2 := 2*(j2+1) - d2 - 1
			for j1 := 1; j1 < m1j; j1++ {
				i1 := 2*(j1+1) - d1 - 1
				x1[i1-1] = r[lk.at(i1-1, i2-1, i3)] + r[lk.at(i1-1, i2+1, i3)] +
					r[lk.at(i1-1, i2, i3-1)] + r[lk.at(i1-1, i2, i3+1)]
				y1[i1-1] = r[lk.at(i1-1, i2-1, i3-1)] + r[lk.at(i1-1, i2-1, i3+1)] +
					r[lk.at(i1-1, i2+1, i3-1)] + r[lk.at(i1-1, i2+1, i3+1)]
			}
			for j1 := 1; j1 < m1j-1; j1++ {
				i1 := 2*(j1+1) - d1 - 1
				y2 := r[lk.at(i1, i2-1, i3-1)] + r[lk.at(i1, i2-1, i3+1)] +
					r[lk.at(i1, i2+1, i3-1)] + r[lk.at(i1, i2+1, i3+1)]
				x2 := r[lk.at(i1, i2-1, i3)] + r[lk.at(i1, i2+1, i3)] +
					r[lk.at(i1, i2, i3-1)] + r[lk.at(i1, i2, i3+1)]
				s[lj.at(j1, j2, j3)] = 0.5*r[lk.at(i1, i2, i3)] +
					0.25*(r[lk.at(i1-1, i2, i3)]+r[lk.at(i1+1, i2, i3)]+x2) +
					0.125*(x1[i1-1]+x1[i1+1]+y2) +
					0.0625*(y1[i1-1]+y1[i1+1])
			}
		}
	}
}

func oracleInterp(z []float64, lj level, u []float64, lk level, i3lo, i3hi int) {
	mm1, mm2 := lj.n1, lj.n2
	z1, z2, z3 := make([]float64, mm1), make([]float64, mm1), make([]float64, mm1)
	for i3 := i3lo; i3 < i3hi; i3++ {
		for i2 := 0; i2 < mm2-1; i2++ {
			for i1 := 0; i1 < mm1; i1++ {
				z1[i1] = z[lj.at(i1, i2+1, i3)] + z[lj.at(i1, i2, i3)]
				z2[i1] = z[lj.at(i1, i2, i3+1)] + z[lj.at(i1, i2, i3)]
				z3[i1] = z[lj.at(i1, i2+1, i3+1)] + z[lj.at(i1, i2, i3+1)] + z1[i1]
			}
			for i1 := 0; i1 < mm1-1; i1++ {
				u[lk.at(2*i1, 2*i2, 2*i3)] += z[lj.at(i1, i2, i3)]
				u[lk.at(2*i1+1, 2*i2, 2*i3)] += 0.5 * (z[lj.at(i1+1, i2, i3)] + z[lj.at(i1, i2, i3)])
			}
			for i1 := 0; i1 < mm1-1; i1++ {
				u[lk.at(2*i1, 2*i2+1, 2*i3)] += 0.5 * z1[i1]
				u[lk.at(2*i1+1, 2*i2+1, 2*i3)] += 0.25 * (z1[i1] + z1[i1+1])
			}
			for i1 := 0; i1 < mm1-1; i1++ {
				u[lk.at(2*i1, 2*i2, 2*i3+1)] += 0.5 * z2[i1]
				u[lk.at(2*i1+1, 2*i2, 2*i3+1)] += 0.25 * (z2[i1] + z2[i1+1])
			}
			for i1 := 0; i1 < mm1-1; i1++ {
				u[lk.at(2*i1, 2*i2+1, 2*i3+1)] += 0.25 * z3[i1]
				u[lk.at(2*i1+1, 2*i2+1, 2*i3+1)] += 0.125 * (z3[i1] + z3[i1+1])
			}
		}
	}
}

// randomField fills a level with generator draws mapped to (-1/6, 1/6),
// ghost shells included, so every product and sum rounds: a draw is a
// multiple of 2^-46, and sums of a dozen such are exact in a double, so
// they would not tell one order of additions from another; a third of
// one fills the whole mantissa.
func randomField(l level, skip int) []float64 {
	f := make([]float64, l.len())
	g := randdp.New(uint64(randdp.DefaultSeed), uint64(randdp.A))
	g.Skip(skip)
	g.Fill(f)
	for i := range f {
		f[i] = (f[i] - 0.5) / 3
	}
	return f
}

func cube(nx int) level { return level{nx + 2, nx + 2, nx + 2} }

// sameField fails the test at the first point where got and want differ
// in a bit.
func sameField(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: point %d = %v, oracle %v", what, i, got[i], want[i])
		}
	}
}

// planeRanges is the whole range [lo, hi), its two halves, its first
// and its last plane.
func planeRanges(lo, hi int) [][2]int {
	mid := (lo + hi) / 2
	return [][2]int{{lo, hi}, {lo, mid}, {mid, hi}, {lo, lo + 1}, {hi - 1, hi}}
}

// TestStencilsMatchOracles holds the four stencils to the scratch-row
// forms bit for bit on random fields: the coarsest grid (nx 4,
// restricting to and prolonging from 2), class S's and class W's
// finest, over whole plane ranges and sub-ranges, which must leave the
// planes outside them alone; resid also with r aliasing v, as the
// V-cycle calls it below the top level. resid and psinv run at each
// width (rowcheck.Modes): their row kernels at 8 and 4, the carried
// forms at 1; the carried forms are held to the oracles at every width
// as well.
func TestStencilsMatchOracles(t *testing.T) {
	a := [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	c := [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
	for _, nx := range []int{4, 32, 128} {
		if testing.Short() && nx == 128 {
			continue
		}
		fine, coarse := cube(nx), cube(nx/2)
		u, v, r0 := randomField(fine, 0), randomField(fine, 1<<22), randomField(fine, 1<<23)
		z := randomField(coarse, 1<<24)
		face, edge := make([]float64, fine.n1), make([]float64, fine.n1)
		clone := func(f []float64) []float64 { return append([]float64(nil), f...) }
		rowcheck.Modes(t, func(width int) {
			for _, pr := range planeRanges(1, fine.n3-1) {
				what := fmt.Sprintf("width %d nx %d planes %v", width, nx, pr)
				got, want, carried := clone(r0), clone(r0), clone(r0)
				residRange(got, u, v, fine, &a, face, edge, pr[0], pr[1])
				oracleResid(want, u, v, fine, &a, pr[0], pr[1])
				residCarried(carried, u, v, fine, &a, pr[0], pr[1])
				sameField(t, "resid "+what, got, want)
				sameField(t, "carried resid "+what, carried, want)

				got, want = clone(r0), clone(r0)
				residRange(got, u, got, fine, &a, face, edge, pr[0], pr[1])
				oracleResid(want, u, want, fine, &a, pr[0], pr[1])
				sameField(t, "resid in place "+what, got, want)

				got, want, carried = clone(u), clone(u), clone(u)
				psinvRange(r0, got, fine, &c, face, edge, pr[0], pr[1])
				oraclePsinv(r0, want, fine, &c, pr[0], pr[1])
				psinvCarried(r0, carried, fine, &c, pr[0], pr[1])
				sameField(t, "psinv "+what, got, want)
				sameField(t, "carried psinv "+what, carried, want)
			}
		})
		for _, pr := range planeRanges(1, coarse.n3-1) {
			got, want := clone(z), clone(z)
			rprj3Range(r0, fine, got, coarse, pr[0], pr[1])
			oracleRprj3(r0, fine, want, coarse, pr[0], pr[1])
			sameField(t, fmt.Sprintf("rprj3 nx %d planes %v", nx, pr), got, want)
		}
		for _, pr := range planeRanges(0, coarse.n3-1) {
			got, want := clone(u), clone(u)
			interpRange(z, coarse, got, fine, pr[0], pr[1])
			oracleInterp(z, coarse, want, fine, pr[0], pr[1])
			sameField(t, fmt.Sprintf("interp nx %d planes %v", nx, pr), got, want)
		}
	}
}

// TestRowKernelsMatchScalar holds each generated row kernel to its
// scalar body, bit for bit, at every row length from 0 to 17, on random
// rows with zeros, infinities, NaNs and subnormals among them
// (rowcheck.Kernels).
func TestRowKernelsMatchScalar(t *testing.T) {
	rowcheck.Kernels(t, [][2]any{{sums4Row, sums4}, {residPtRow, residPt}, {psinvPtRow, psinvPt}})
}

// The stencil benchmarks time one sweep of the interior on one thread at
// class W's finest grid (130³, 17 MB a field: streamed from memory) and
// at class S's (34³, 315 KB: resident in L2). Equal time per point on
// both is the evidence that a stencil is not bound by memory.
func benchStencil(b *testing.B, sweep func(fine, coarse level, f1, f2, f3, z []float64)) {
	for _, nx := range []int{128, 32} {
		b.Run(fmt.Sprintf("nx%d", nx), func(b *testing.B) {
			fine, coarse := cube(nx), cube(nx/2)
			f1, f2, f3 := randomField(fine, 0), randomField(fine, 1<<22), randomField(fine, 1<<23)
			z := randomField(coarse, 1<<24)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep(fine, coarse, f1, f2, f3, z)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(nx*nx*nx), "ns/point")
		})
	}
}

var (
	benchA = [4]float64{-8.0 / 3.0, 0.0, 1.0 / 6.0, 1.0 / 12.0}
	benchC = [4]float64{-3.0 / 8.0, 1.0 / 32.0, -1.0 / 64.0, 0.0}
)

func BenchmarkResid(b *testing.B) {
	face, edge := make([]float64, 130), make([]float64, 130)
	benchStencil(b, func(fine, _ level, r, u, v, _ []float64) {
		residRange(r, u, v, fine, &benchA, face, edge, 1, fine.n3-1)
	})
}

func BenchmarkCarriedResid(b *testing.B) {
	benchStencil(b, func(fine, _ level, r, u, v, _ []float64) { residCarried(r, u, v, fine, &benchA, 1, fine.n3-1) })
}

func BenchmarkOracleResid(b *testing.B) {
	benchStencil(b, func(fine, _ level, r, u, v, _ []float64) { oracleResid(r, u, v, fine, &benchA, 1, fine.n3-1) })
}

// Psinv and interp add a fixed increment each sweep, so u only grows
// linearly with b.N.
func BenchmarkPsinv(b *testing.B) {
	face, edge := make([]float64, 130), make([]float64, 130)
	benchStencil(b, func(fine, _ level, r, u, _, _ []float64) { psinvRange(r, u, fine, &benchC, face, edge, 1, fine.n3-1) })
}

func BenchmarkCarriedPsinv(b *testing.B) {
	benchStencil(b, func(fine, _ level, r, u, _, _ []float64) { psinvCarried(r, u, fine, &benchC, 1, fine.n3-1) })
}

func BenchmarkOraclePsinv(b *testing.B) {
	benchStencil(b, func(fine, _ level, r, u, _, _ []float64) { oraclePsinv(r, u, fine, &benchC, 1, fine.n3-1) })
}

func BenchmarkRprj3(b *testing.B) {
	benchStencil(b, func(fine, coarse level, r, _, _, s []float64) { rprj3Range(r, fine, s, coarse, 1, coarse.n3-1) })
}

func BenchmarkOracleRprj3(b *testing.B) {
	benchStencil(b, func(fine, coarse level, r, _, _, s []float64) { oracleRprj3(r, fine, s, coarse, 1, coarse.n3-1) })
}

func BenchmarkInterp(b *testing.B) {
	benchStencil(b, func(fine, coarse level, u, _, _, z []float64) { interpRange(z, coarse, u, fine, 0, coarse.n3-1) })
}

func BenchmarkOracleInterp(b *testing.B) {
	benchStencil(b, func(fine, coarse level, u, _, _, z []float64) { oracleInterp(z, coarse, u, fine, 0, coarse.n3-1) })
}
