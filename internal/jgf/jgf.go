// Package jgf reproduces the Java Grande Forum lufact benchmark study of
// the paper's Table 7: the paper found that lufact — a direct port of
// LINPACK's unblocked, BLAS1-based DGEFA — is memory-bound ("the
// computations always wait for data"), which hides the language gap it
// was supposed to measure; a blocked DGETRF-style LU with a
// matrix-multiply update ("good cache reuse since it is based on MMULT")
// is vastly faster. Both variants are implemented here on the same
// deterministic matrices, classes A/B/C = 500/1000/2000.
package jgf

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/blas"
	"npbgo/internal/randdp"
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

// Result reports one LU factor+solve run.
type Result struct {
	N        int
	Factor   time.Duration
	Solve    time.Duration
	Mflops   float64
	Residual float64 // normalized LINPACK residual
	OK       bool
}

// Ops returns the standard LINPACK operation count for order n.
func Ops(n int) float64 {
	nf := float64(n)
	return 2.0/3.0*nf*nf*nf + 2.0*nf*nf
}

// runLU factors and solves with the supplied routines and validates the
// solution against the LINPACK normalized-residual criterion.
func runLU(n int, factor func(a []float64, lda int, ipvt []int),
	solve func(a []float64, lda int, ipvt []int, b []float64)) Result {
	lda := n + 1 // LINPACK pads the leading dimension to avoid cache thrash
	a := make([]float64, lda*n)
	norma := Matgen(a, lda, n)

	// b = A * ones, so the exact solution is x = ones.
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		for i := 0; i < n; i++ {
			b[i] += col[i]
		}
	}
	aCopy := make([]float64, len(a))
	copy(aCopy, a)

	ipvt := make([]int, n)
	t0 := time.Now()
	factor(a, lda, ipvt)
	tFactor := time.Since(t0)
	t1 := time.Now()
	solve(a, lda, ipvt, b)
	tSolve := time.Since(t1)

	// Residual ||A x - b|| / (n ||A|| ||x|| eps).
	normx := 0.0
	resid := 0.0
	r := make([]float64, n)
	for j := 0; j < n; j++ {
		col := aCopy[j*lda:]
		xj := b[j]
		if math.Abs(xj) > normx {
			normx = math.Abs(xj)
		}
		for i := 0; i < n; i++ {
			r[i] += col[i] * xj
		}
	}
	for i := 0; i < n; i++ {
		// The right-hand side was A*ones; recompute it for the check.
		s := 0.0
		for j := 0; j < n; j++ {
			s += aCopy[j*lda+i]
		}
		if d := math.Abs(r[i] - s); d > resid {
			resid = d
		}
	}
	eps := 2.220446049250313e-16
	normResid := resid / (float64(n) * norma * normx * eps)

	var res Result
	res.N = n
	res.Factor = tFactor
	res.Solve = tSolve
	total := tFactor + tSolve
	if s := total.Seconds(); s > 0 {
		res.Mflops = Ops(n) * 1e-6 / s
	}
	res.Residual = normResid
	res.OK = normResid < 100.0 // generous LINPACK-style acceptance
	return res
}

// RunLufact runs the unblocked Java Grande lufact variant for class
// letter cl ('A', 'B', 'C') or an explicit order n when cl is 0.
func RunLufact(cl byte, n int) (Result, error) {
	if cl != 0 {
		var ok bool
		n, ok = ClassSize[cl]
		if !ok {
			return Result{}, fmt.Errorf("jgf: unknown class %q", string(cl))
		}
	}
	return runLU(n,
		func(a []float64, lda int, ipvt []int) { Dgefa(a, lda, n, ipvt) },
		func(a []float64, lda int, ipvt []int, b []float64) { Dgesl(a, lda, n, ipvt, b) }), nil
}

// RunBlocked runs the blocked DGETRF-style variant.
func RunBlocked(cl byte, n, nb int) (Result, error) {
	if cl != 0 {
		var ok bool
		n, ok = ClassSize[cl]
		if !ok {
			return Result{}, fmt.Errorf("jgf: unknown class %q", string(cl))
		}
	}
	return runLU(n,
		func(a []float64, lda int, ipvt []int) { Dgetrf(a, lda, n, ipvt, nb) },
		func(a []float64, lda int, ipvt []int, b []float64) { DgetrfSolve(a, lda, n, ipvt, b) }), nil
}
