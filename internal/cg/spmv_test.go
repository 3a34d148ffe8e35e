package cg

import (
	"math"
	"testing"
)

// oracleSpmvRows is the row loop spmvRows replaced, kept as the
// reference for its bits: one row at a time, summed in storage order.
func oracleSpmvRows(rowstr []int, colidx []int32, a, in, out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sum := 0.0
		for k := rowstr[i]; k < rowstr[i+1]; k++ {
			sum += a[k] * in[colidx[k]]
		}
		out[i] = sum
	}
}

// TestSpmvRowsMatchesOracle compares the two-lane mat-vec with the
// one-row loop bit for bit on makea's class S and W matrices — over the
// whole range, both halves (the two-thread split) and ranges too short
// to fill or refill two lanes. Rows outside the range must be left
// alone.
func TestSpmvRowsMatchesOracle(t *testing.T) {
	check := func(name string, rowstr []int, colidx []int32, a []float64) {
		n := len(rowstr) - 1
		in := make([]float64, n)
		for i := range in {
			in[i] = 1 / float64(i+3)
		}
		ranges := [][2]int{{0, n}, {0, n / 2}, {n / 2, n}}
		for _, d := range []int{0, 1, 2, 3, 5} {
			ranges = append(ranges, [2]int{n / 3, n/3 + d}, [2]int{n - d, n})
		}
		for _, r := range ranges {
			got, want := make([]float64, n), make([]float64, n)
			for i := range got {
				got[i], want[i] = -7, -7
			}
			spmvRows(rowstr, colidx, a, in, got, r[0], r[1])
			oracleSpmvRows(rowstr, colidx, a, in, want, r[0], r[1])
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s rows [%d,%d): out[%d] = %v, oracle %v", name, r[0], r[1], i, got[i], want[i])
				}
			}
		}
	}
	for _, class := range []byte{'S', 'W'} {
		p := classes[class]
		rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
		check(string(class), rowstr, colidx, a)
	}
}

// BenchmarkSpmv is one class-W mat-vec on one thread, 92 % of CG.W;
// BenchmarkOracleSpmv is the one-row loop on the same matrix.
func BenchmarkSpmv(b *testing.B)       { benchSpmv(b, spmvRows) }
func BenchmarkOracleSpmv(b *testing.B) { benchSpmv(b, oracleSpmvRows) }

func benchSpmv(b *testing.B, f func([]int, []int32, []float64, []float64, []float64, int, int)) {
	p := classes['W']
	rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
	in, out := make([]float64, p.na), make([]float64, p.na)
	for i := range in {
		in[i] = 1
	}
	b.SetBytes(int64(12 * len(a)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(rowstr, colidx, a, in, out, 0, p.na)
	}
}
