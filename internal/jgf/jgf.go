// Package jgf reproduces the Java Grande Forum lufact benchmark study of
// the paper's Table 7: the paper found that lufact — a direct port of
// LINPACK's unblocked, BLAS1-based DGEFA — is memory-bound ("the
// computations always wait for data"), which hides the language gap it
// was supposed to measure; a blocked DGETRF-style LU with a
// matrix-multiply update ("good cache reuse since it is based on MMULT")
// is vastly faster. Both variants are implemented here on the same
// deterministic matrices, classes A/B/C = 500/1000/2000, and LU runs
// each as a Table 7 entry (internal/suite's Paper list).
package jgf

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/blas"
	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// ClassSize maps Java Grande class letters to matrix orders.
var ClassSize = map[byte]int{'A': 500, 'B': 1000, 'C': 2000}

// matgenSeed is LINPACK matgen's init value, used as the NPB generator's
// starting state.
const matgenSeed = 1325

// Matgen fills the column-major n x n matrix a (lda >= n) with the
// deterministic pseudorandom entries in (-0.5, 0.5) and returns its
// largest absolute entry, following LINPACK's matgen (with the NPB
// generator supplying the stream).
func Matgen(a []float64, lda, n int) float64 {
	s := randdp.New(matgenSeed, randdp.A)
	norma := 0.0
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		for i := 0; i < n; i++ {
			v := s.Next() - 0.5
			col[i] = v
			if av := math.Abs(v); av > norma {
				norma = av
			}
		}
	}
	return norma
}

// Dgefa factors the column-major n x n matrix a in place with partial
// pivoting using only BLAS1 operations — the LINPACK routine the Java
// Grande lufact benchmark ports. It records pivots in ipvt and returns
// the index+1 of a zero pivot, or 0 on success.
func Dgefa(a []float64, lda, n int, ipvt []int) int {
	info := 0
	for k := 0; k < n-1; k++ {
		col := a[k*lda:]
		l := blas.Idamax(n-k, col[k:n]) + k
		ipvt[k] = l
		if col[l] == 0 {
			info = k + 1
			continue
		}
		if l != k {
			col[l], col[k] = col[k], col[l]
		}
		t := -1.0 / col[k]
		blas.Dscal(n-k-1, t, col[k+1:n])
		for j := k + 1; j < n; j++ {
			cj := a[j*lda:]
			t := cj[l]
			if l != k {
				cj[l], cj[k] = cj[k], cj[l]
			}
			blas.Daxpy(n-k-1, t, col[k+1:n], cj[k+1:n])
		}
	}
	ipvt[n-1] = n - 1
	if a[(n-1)*lda+n-1] == 0 {
		info = n
	}
	return info
}

// Dgesl solves a*x = b using the Dgefa factorization, overwriting b
// with x (LINPACK dgesl, job 0).
func Dgesl(a []float64, lda, n int, ipvt []int, b []float64) {
	// Forward: solve L*y = b.
	for k := 0; k < n-1; k++ {
		l := ipvt[k]
		t := b[l]
		if l != k {
			b[l], b[k] = b[k], b[l]
		}
		blas.Daxpy(n-k-1, t, a[k*lda+k+1:k*lda+n], b[k+1:n])
	}
	// Backward: solve U*x = y.
	for k := n - 1; k >= 0; k-- {
		b[k] /= a[k*lda+k]
		t := -b[k]
		blas.Daxpy(k, t, a[k*lda:k*lda+k], b[:k])
	}
}

// Dgetrf factors a in place with partial pivoting using a right-looking
// blocked algorithm (panel DGEFA-style factorization, row interchanges,
// unit-lower triangular solve of the U panel, DGEMM trailing update) —
// the LAPACK-style LU the paper's Table 7 quotes as "LINPACK" with good
// cache reuse. nb is the block size (32 if nb <= 0).
func Dgetrf(a []float64, lda, n int, ipvt []int, nb int) int {
	if nb <= 0 {
		nb = 32
	}
	info := 0
	for k0 := 0; k0 < n; k0 += nb {
		kb := nb
		if k0+kb > n {
			kb = n - k0
		}
		// Factor the panel a[k0:n, k0:k0+kb] unblocked.
		for k := k0; k < k0+kb; k++ {
			col := a[k*lda:]
			l := blas.Idamax(n-k, col[k:n]) + k
			ipvt[k] = l
			if col[l] == 0 {
				if info == 0 {
					info = k + 1
				}
				continue
			}
			if l != k {
				// Swap rows l and k across the whole matrix (LAPACK
				// applies interchanges globally).
				for j := 0; j < n; j++ {
					a[j*lda+l], a[j*lda+k] = a[j*lda+k], a[j*lda+l]
				}
			}
			piv := 1.0 / col[k]
			for i := k + 1; i < n; i++ {
				col[i] *= piv
			}
			// Update the remainder of the panel only.
			for j := k + 1; j < k0+kb; j++ {
				cj := a[j*lda:]
				t := cj[k]
				for i := k + 1; i < n; i++ {
					cj[i] -= t * col[i]
				}
			}
		}
		if k0+kb < n {
			// U panel: solve L11 * U12 = A12.
			blas.DtrsmLLUnit(kb, n-k0-kb, a[k0*lda+k0:], lda, a[(k0+kb)*lda+k0:], lda)
			// Trailing update: A22 -= L21 * U12.
			blas.DgemmSub(n-k0-kb, n-k0-kb, kb,
				a[k0*lda+k0+kb:], lda,
				a[(k0+kb)*lda+k0:], lda,
				a[(k0+kb)*lda+k0+kb:], lda)
		}
	}
	return info
}

// DgetrfSolve solves a*x = b from a Dgetrf factorization (pivots were
// applied globally during factorization, so b needs the same row
// interchanges before the triangular solves).
func DgetrfSolve(a []float64, lda, n int, ipvt []int, b []float64) {
	for k := 0; k < n; k++ {
		if l := ipvt[k]; l != k {
			b[l], b[k] = b[k], b[l]
		}
	}
	// L (unit lower) forward solve.
	for k := 0; k < n; k++ {
		t := b[k]
		if t == 0 {
			continue
		}
		col := a[k*lda:]
		for i := k + 1; i < n; i++ {
			b[i] -= t * col[i]
		}
	}
	// U backward solve.
	for k := n - 1; k >= 0; k-- {
		b[k] /= a[k*lda+k]
		t := b[k]
		col := a[k*lda:]
		for i := 0; i < k; i++ {
			b[i] -= t * col[i]
		}
	}
}

// Ops returns the standard LINPACK operation count for order n.
func Ops(n int) float64 {
	nf := float64(n)
	return 2.0/3.0*nf*nf*nf + 2.0*nf*nf
}

// LU is one entry of the paper's Table 7 (internal/suite's Paper list):
// lufact's unblocked factorization (Dgefa, Dgesl) or the blocked
// DGETRF (Dgetrf, DgetrfSolve) of matgen's matrix of the class's order,
// solving A x = A·ones. It runs serially and does not watch the Env's
// context: a run is one factorization. Its verification is the LINPACK
// normalized residual, accepted below 100.
type LU struct {
	n, nb int       // order; block size, 0 for lufact
	a, a0 []float64 // the factored matrix and matgen's, column-major, leading dimension n+1
	b, b0 []float64 // the right-hand side, overwritten by the solution; A·ones
	ipvt  []int
	norma float64 // matgen's largest absolute entry
	env   kernel.Env
}

// New builds the class's ('A', 'B' or 'C') Table 7 entry for one
// thread: lufact, or with blocked the 32-wide blocked DGETRF. Another
// class, or threads other than 1, is an error.
func New(blocked bool, class byte, threads int, env kernel.Env) (*LU, error) {
	if _, err := Footprint(blocked, class, threads); err != nil {
		return nil, err
	}
	k := newLU(ClassSize[class], 0, env)
	if blocked {
		k.nb = 32
	}
	return k, nil
}

// Footprint is the bytes New allocates: the two matrices, the two
// vectors and the pivots.
func Footprint(blocked bool, class byte, threads int) (uint64, error) {
	n, ok := ClassSize[class]
	if !ok || threads != 1 {
		return 0, fmt.Errorf("jgf: the LU entries take class A, B or C and 1 thread; got class %q, %d threads", string(class), threads)
	}
	return 8 * uint64(2*(n+1)*n+3*n), nil
}

// newLU builds the system of order n; LINPACK pads the leading
// dimension to n+1 to avoid cache thrash.
func newLU(n, nb int, env kernel.Env) *LU {
	lda := n + 1
	k := &LU{n: n, nb: nb, env: env, a: make([]float64, lda*n), a0: make([]float64, lda*n),
		b: make([]float64, n), b0: make([]float64, n), ipvt: make([]int, n)}
	k.norma = Matgen(k.a0, lda, n)
	for j := 0; j < n; j++ {
		for i, v := range k.a0[j*lda : j*lda+n] {
			k.b0[i] += v
		}
	}
	return k
}

// Iter restores the system and factors and solves it.
func (k *LU) Iter(*team.Team) {
	copy(k.a, k.a0)
	copy(k.b, k.b0)
	k.solve()
}

func (k *LU) solve() {
	n, lda := k.n, k.n+1
	if k.nb == 0 {
		Dgefa(k.a, lda, n, k.ipvt)
		Dgesl(k.a, lda, n, k.ipvt, k.b)
	} else {
		Dgetrf(k.a, lda, n, k.ipvt, k.nb)
		DgetrfSolve(k.a, lda, n, k.ipvt, k.b)
	}
}

// Run times one factor and solve, Ops(n) operations, and verifies the
// solution by its normalized residual ||A x - b|| / (n ||A|| ||x|| eps),
// which a NaN anywhere makes NaN.
func (k *LU) Run() kernel.Outcome {
	copy(k.a, k.a0)
	copy(k.b, k.b0)
	start := time.Now()
	k.solve()
	elapsed := time.Since(start)
	n, lda := k.n, k.n+1
	r := make([]float64, n)
	normx, resid := 0.0, 0.0
	for j, xj := range k.b {
		normx = max(normx, math.Abs(xj))
		for i, v := range k.a0[j*lda : j*lda+n] {
			r[i] += v * xj
		}
	}
	for i, ri := range r {
		resid = max(resid, math.Abs(ri-k.b0[i]))
	}
	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.AddTol("residual", resid/(float64(n)*k.norma*normx*2.220446049250313e-16), 0, 100)
	return k.env.Outcome(elapsed, Ops(n)*1e-6, rep)
}
