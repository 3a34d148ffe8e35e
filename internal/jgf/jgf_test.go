package jgf

import (
	"math"
	"testing"
	"testing/quick"

	"npbgo/internal/kernel"
)

func TestLufactSolvesKnownSystem(t *testing.T) {
	if out := newLU(120, 0, kernel.Env{}).Run(); !out.Verify.Passed() {
		t.Fatalf("residual too large:\n%s", out.Verify)
	}
}

func TestBlockedSolvesKnownSystem(t *testing.T) {
	for _, nb := range []int{1, 8, 32, 200} {
		if out := newLU(130, nb, kernel.Env{}).Run(); !out.Verify.Passed() {
			t.Fatalf("nb=%d residual too large:\n%s", nb, out.Verify)
		}
	}
}

func TestBlockedMatchesUnblockedFactorization(t *testing.T) {
	// Both algorithms compute the same LU factorization (same pivot
	// choices) of the same matrix; solutions must agree to rounding.
	const n = 90
	lda := n
	a1 := make([]float64, lda*n)
	Matgen(a1, lda, n)
	a2 := make([]float64, lda*n)
	copy(a2, a1)
	b1 := make([]float64, n)
	b2 := make([]float64, n)
	for i := 0; i < n; i++ {
		b1[i] = float64(i%13) - 6
		b2[i] = b1[i]
	}
	p1 := make([]int, n)
	p2 := make([]int, n)
	Dgefa(a1, lda, n, p1)
	Dgesl(a1, lda, n, p1, b1)
	Dgetrf(a2, lda, n, p2, 16)
	DgetrfSolve(a2, lda, n, p2, b2)
	for i := 0; i < n; i++ {
		if p1[i] != p2[i] {
			t.Fatalf("pivot %d differs: %d vs %d", i, p1[i], p2[i])
		}
		if math.Abs(b1[i]-b2[i]) > 1e-8*(1+math.Abs(b1[i])) {
			t.Fatalf("solution %d differs: %v vs %v", i, b1[i], b2[i])
		}
	}
}

func TestDgefaSingularDetected(t *testing.T) {
	const n = 4
	a := make([]float64, n*n) // all zeros: singular
	ipvt := make([]int, n)
	if info := Dgefa(a, n, n, ipvt); info == 0 {
		t.Fatal("zero matrix not reported singular")
	}
}

func TestSolveRandomSystemsProperty(t *testing.T) {
	f := func(seed uint32) bool {
		n := 20 + int(seed%30)
		lda := n
		a := make([]float64, lda*n)
		Matgen(a, lda, n)
		// Perturb deterministically by seed so each case differs. The
		// remainders are taken in uint32: int(seed) is negative for half
		// the seeds where int is 32 bits.
		a[seed%uint32(lda*n)] += 0.25
		want := make([]float64, n)
		b := make([]float64, n)
		for i := range want {
			want[i] = float64((seed%7+uint32(i))%7) - 3
		}
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				b[i] += a[j*lda+i] * want[j]
			}
		}
		ipvt := make([]int, n)
		Dgefa(a, lda, n, ipvt)
		Dgesl(a, lda, n, ipvt, b)
		for i := range want {
			if math.Abs(b[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestMatgenDeterministic(t *testing.T) {
	a := make([]float64, 25)
	b := make([]float64, 25)
	na := Matgen(a, 5, 5)
	nb := Matgen(b, 5, 5)
	if na != nb {
		t.Fatal("norms differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("matrices differ")
		}
		if a[i] <= -0.5 || a[i] >= 0.5 {
			t.Fatalf("entry %v out of range", a[i])
		}
	}
}

func TestOpsCount(t *testing.T) {
	if Ops(3) != 2.0/3.0*27+2*9 {
		t.Fatalf("Ops(3) = %v", Ops(3))
	}
}

func TestUnknownClass(t *testing.T) {
	for _, blocked := range []bool{false, true} {
		if k, err := New(blocked, 'Z', 1, kernel.Env{}); err == nil || k != nil {
			t.Fatalf("blocked=%v: class Z accepted", blocked)
		}
		if _, err := Footprint(blocked, 'Z', 1); err == nil {
			t.Fatalf("blocked=%v: Footprint accepted class Z", blocked)
		}
	}
}
