package cg

import (
	"fmt"
	"math"

	"npbgo/internal/team"
)

// EigenResult reports an inverse-power-method eigenvalue estimation.
type EigenResult struct {
	Eigenvalue float64   // the estimate after the final outer iteration
	History    []float64 // estimate after each outer iteration
	Residual   float64   // final ||x - A_shifted z|| from the inner CG
}

// EstimateSmallestEigenvalue runs the CG benchmark's shifted
// inverse-power iteration on a caller-supplied sparse symmetric matrix
// in CSR form (rowstr of length n+1, 0-based colidx, values a): each of
// outerIters steps solves (A - shift*I) z = x with 25 CG iterations and
// refines the estimate shift + 1/(x.z), converging to the eigenvalue of
// A nearest the shift (the smallest one for shift below the spectrum).
// This is exactly the benchmark's algorithm exposed as a library.
func EstimateSmallestEigenvalue(n int, rowstr, colidx []int, a []float64,
	shift float64, outerIters, threads int) (EigenResult, error) {
	var res EigenResult
	if len(rowstr) != n+1 {
		return res, fmt.Errorf("cg: rowstr has length %d, want n+1 = %d", len(rowstr), n+1)
	}
	if len(colidx) != len(a) || rowstr[n] != len(a) {
		return res, fmt.Errorf("cg: CSR arrays inconsistent")
	}
	if outerIters < 1 || threads < 1 {
		return res, fmt.Errorf("cg: outerIters and threads must be >= 1")
	}

	// The solver streams 32-bit column indices.
	if n > math.MaxInt32 {
		return res, fmt.Errorf("cg: n = %d does not fit a 32-bit column index", n)
	}
	cols := make([]int32, len(colidx))
	for k, c := range colidx {
		if c < 0 || c >= n {
			return res, fmt.Errorf("cg: column index %d outside [0, %d)", c, n)
		}
		cols[k] = int32(c)
	}

	// Shift the diagonal on a private copy (the benchmark's makea bakes
	// rcond - shift into the generated matrix).
	av := make([]float64, len(a))
	copy(av, a)
	if shift != 0 {
		for i := 0; i < n; i++ {
			found := false
			for k := rowstr[i]; k < rowstr[i+1]; k++ {
				if colidx[k] == i {
					av[k] -= shift
					found = true
					break
				}
			}
			if !found {
				return res, fmt.Errorf("cg: row %d has no stored diagonal to shift", i)
			}
		}
	}

	b := &Benchmark{
		p:       params{na: n, shift: shift},
		threads: threads,
		rowstr:  rowstr, colidx: cols, a: av,
		x: make([]float64, n), z: make([]float64, n),
		pv: make([]float64, n), q: make([]float64, n), r: make([]float64, n),
	}
	b.buildBodies()
	tm := team.New(threads)
	defer tm.Close()
	b.tm = tm

	for i := range b.x {
		b.x[i] = 1.0
	}
	for it := 0; it < outerIters; it++ {
		res.Residual = b.conjGrad()
		norm1 := b.dot(b.x, b.z)
		res.Eigenvalue = shift + 1.0/norm1
		res.History = append(res.History, res.Eigenvalue)
		b.normalize()
	}
	if math.IsNaN(res.Eigenvalue) {
		return res, fmt.Errorf("cg: iteration diverged (NaN estimate)")
	}
	return res, nil
}
