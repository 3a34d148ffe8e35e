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
// every loop schedule.
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
	for _, threads := range []int{1, 2, 3, 4, 7} {
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

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('Z', 1, kernel.Env{}); err == nil {
		t.Fatal("class Z accepted")
	}
	if _, err := New('S', 0, kernel.Env{}); err == nil {
		t.Fatal("zero threads accepted")
	}
}
