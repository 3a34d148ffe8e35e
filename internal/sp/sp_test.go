package sp

import (
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/kernel"
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

func TestTransformsAreInverses(t *testing.T) {
	// tzetar . pinvr . ninvr . txinvr is NOT the identity, but the
	// composition of txinvr with the full eigenvector chain must
	// preserve finiteness and scale: check that applying the four
	// transforms to a smooth rhs keeps values bounded and nonzero.
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)
	b.f.ComputeRHS(&b.c, tm)
	norm0 := b.f.RHSNorm()
	b.txinvr(tm)
	b.ninvr(tm)
	b.pinvr(tm)
	b.tzetar(tm)
	norm1 := b.f.RHSNorm()
	for m := 0; m < 5; m++ {
		if math.IsNaN(norm1[m]) || norm1[m] == 0 {
			t.Fatalf("component %d norm degenerate: %v", m, norm1[m])
		}
		if norm1[m] > 1e3*norm0[m]+1e3 {
			t.Fatalf("component %d norm exploded: %v -> %v", m, norm0[m], norm1[m])
		}
	}
}

func TestErrorDecreasesOverSteps(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)
	e0 := b.f.ErrorNorm(&b.c)
	for s := 0; s < 30; s++ {
		b.adi(tm)
	}
	e1 := b.f.ErrorNorm(&b.c)
	for m := 0; m < 5; m++ {
		if e1[m] >= e0[m] {
			t.Fatalf("component %d error grew: %v -> %v", m, e0[m], e1[m])
		}
	}
	for _, v := range b.f.U {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("field blew up")
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
	run := func(threads int, sched team.Schedule) []float64 {
		b, _ := New('S', threads, kernel.Env{})
		tm := team.New(threads, team.WithSchedule(sched))
		defer tm.Close()
		b.f.Initialize(&b.c)
		b.f.ExactRHS(&b.c)
		for s := 0; s < 5; s++ {
			b.adi(tm)
		}
		return b.f.U
	}
	want := run(1, team.Static)
	for _, threads := range []int{1, 2, 3, 4, 7, 13} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic, team.Guided, team.Stealing} {
			got := run(threads, sched)
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
		if math.IsNaN(res.XCR[m]) || math.IsNaN(res.XCE[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
}
