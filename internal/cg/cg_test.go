package cg

import (
	"math"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
)

func TestSprnvcDistinctLocations(t *testing.T) {
	tran := randdp.New(randdp.DefaultSeed, randdp.A)
	v := make([]float64, 8)
	iv := make([]int, 8)
	mark := make([]bool, 101)
	nzv := sprnvc(100, 8, &tran, v, iv, mark)
	if nzv != 8 {
		t.Fatalf("nzv = %d, want 8", nzv)
	}
	seen := map[int]bool{}
	for k := 0; k < nzv; k++ {
		if iv[k] < 1 || iv[k] > 100 {
			t.Fatalf("location %d out of [1,100]", iv[k])
		}
		if seen[iv[k]] {
			t.Fatalf("duplicate location %d", iv[k])
		}
		seen[iv[k]] = true
		if v[k] <= 0 || v[k] >= 1 {
			t.Fatalf("value %v outside (0,1)", v[k])
		}
	}
	for i := range mark {
		if mark[i] {
			t.Fatalf("mark[%d] not reset", i)
		}
	}
}

func TestSprnvcConsumesTwoDrawsPerAttempt(t *testing.T) {
	// With n a power of two, no draw can be rejected for i > n, so the
	// stream advances exactly 2*nz when there are no duplicates.
	tran := randdp.New(randdp.DefaultSeed, randdp.A)
	ref := tran
	v := make([]float64, 4)
	iv := make([]int, 4)
	mark := make([]bool, 1<<16+1)
	sprnvc(1<<16, 4, &tran, v, iv, mark)
	// Advance a reference stream 8 times (assuming no duplicate hits in
	// a 65536-slot space for 4 draws — overwhelmingly likely and
	// deterministic for this seed).
	ref.Skip(8)
	if tran != ref {
		t.Fatalf("stream misaligned: %v vs %v", tran.Seed(), ref.Seed())
	}
}

func TestVecset(t *testing.T) {
	v := []float64{1, 2, 3, 0}
	iv := []int{5, 9, 2, 0}
	if nzv := vecset(v, iv, 3, 9, 0.5); nzv != 3 || v[1] != 0.5 {
		t.Fatalf("existing update failed: nzv=%d v=%v", nzv, v)
	}
	if nzv := vecset(v, iv, 3, 7, 0.25); nzv != 4 || v[3] != 0.25 || iv[3] != 7 {
		t.Fatalf("append failed: nzv=%d v=%v iv=%v", nzv, v, iv)
	}
}

func TestMakeaStructure(t *testing.T) {
	const n = 200
	rowstr, colidx, a := makea(n, 5, rcond, 10.0)
	if len(rowstr) != n+1 || rowstr[0] != 0 {
		t.Fatalf("rowstr malformed: len=%d first=%d", len(rowstr), rowstr[0])
	}
	if rowstr[n] != len(a) || len(a) != len(colidx) {
		t.Fatalf("CSR arrays inconsistent: %d %d %d", rowstr[n], len(a), len(colidx))
	}
	for i := 0; i < n; i++ {
		if rowstr[i+1] < rowstr[i] {
			t.Fatalf("rowstr not monotone at %d", i)
		}
		for k := rowstr[i]; k < rowstr[i+1]; k++ {
			if colidx[k] < 0 || int(colidx[k]) >= n {
				t.Fatalf("column %d out of range", colidx[k])
			}
			if k > rowstr[i] && colidx[k] <= colidx[k-1] {
				t.Fatalf("row %d columns not strictly increasing", i)
			}
		}
	}
}

func TestMakeaSymmetric(t *testing.T) {
	const n = 150
	rowstr, colidx, a := makea(n, 4, rcond, 10.0)
	get := func(i, j int) float64 {
		for k := rowstr[i]; k < rowstr[i+1]; k++ {
			if int(colidx[k]) == j {
				return a[k]
			}
		}
		return 0
	}
	for i := 0; i < n; i++ {
		for k := rowstr[i]; k < rowstr[i+1]; k++ {
			j := int(colidx[k])
			if d := math.Abs(a[k] - get(j, i)); d > 1e-12 {
				t.Fatalf("A[%d,%d]=%v but A[%d,%d]=%v", i, j, a[k], j, i, get(j, i))
			}
		}
	}
}

func TestMakeaDiagonalShift(t *testing.T) {
	// Every diagonal entry includes rcond - shift; with shift large the
	// diagonal must be strongly negative.
	const n = 100
	const shift = 50.0
	rowstr, colidx, a := makea(n, 4, rcond, shift)
	for i := 0; i < n; i++ {
		found := false
		for k := rowstr[i]; k < rowstr[i+1]; k++ {
			if int(colidx[k]) == i {
				found = true
				if a[k] > rcond-shift+5 {
					t.Fatalf("diagonal %d = %v, expected near %v", i, a[k], rcond-shift)
				}
			}
		}
		if !found {
			t.Fatalf("row %d missing diagonal", i)
		}
	}
}

func TestClassSVerifies(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := b.RunResult()
	if !res.Verify.Passed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	if res.RNorm > 1e-8 {
		t.Fatalf("final residual %v too large", res.RNorm)
	}
}

func TestParallelMatchesOfficialZeta(t *testing.T) {
	for _, n := range []int{2, 4} {
		b, err := New('S', n, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		res := b.RunResult()
		if !res.Verify.Passed() {
			t.Fatalf("threads=%d failed verification:\n%s", n, res.Verify)
		}
	}
}

func TestRepeatedRunsDeterministic(t *testing.T) {
	b, _ := New('S', 2, kernel.Env{})
	r1 := b.RunResult()
	r2 := b.RunResult()
	if r1.Zeta != r2.Zeta {
		t.Fatalf("zeta not reproducible: %v vs %v", r1.Zeta, r2.Zeta)
	}
}

func TestNNZPositive(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	if b.NNZ() <= b.p.na {
		t.Fatalf("NNZ = %d suspiciously small", b.NNZ())
	}
}

// TestCorruptedMatrixFailsVerification is a failure-injection check:
// perturbing one stored matrix entry must flip the verification verdict
// (the eigenvalue estimate is sensitive to the operator).
func TestCorruptedMatrixFailsVerification(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	b.a[len(b.a)/3] += 0.5
	res := b.RunResult()
	if res.Verify.Passed() {
		t.Fatalf("corrupted matrix still verified: zeta=%v", res.Zeta)
	}
	if !res.Verify.Failed() {
		t.Fatal("corruption not reported as failure")
	}
}
