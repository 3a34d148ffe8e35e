package cg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/rowcheck"
	"npbgo/internal/simd"
)

// spmvRows is the CSR mat-vec the SELL form replaced, kept as the
// oracle of its bits: rows [lo, hi) of out = A in. A row's sum is one
// chain of dependent adds, four cycles apart while the loads and the
// multiply could issue every cycle, so two rows are kept in flight: two
// lanes, each summing its own row in storage order from zero (the bits
// of the one-row loop), each taking the chunk's next row when its row
// ends. The inner loop runs to the nearer of the two row ends with no
// test but its counter.
func spmvRows(rowstr []int, colidx []int32, a, in, out []float64, lo, hi int) {
	if lo >= hi {
		return
	}
	ra, ka, ea, sa := lo, rowstr[lo], rowstr[lo+1], 0.0
	if hi-lo >= 2 {
		rb, kb, eb, sb := lo+1, ea, rowstr[lo+2], 0.0
		for next := lo + 2; ; {
			m := min(ea-ka, eb-kb)
			va, ca := a[ka:ka+m], colidx[ka:ka+m]
			vb, cb := a[kb:kb+m], colidx[kb:kb+m]
			for t := range va {
				sa += va[t] * in[ca[t]]
				sb += vb[t] * in[cb[t]]
			}
			ka, kb = ka+m, kb+m
			if ka == ea {
				out[ra] = sa
				if next == hi {
					ra, ka, ea, sa = rb, kb, eb, sb
					break
				}
				ra, ka, ea, sa = next, rowstr[next], rowstr[next+1], 0
				next++
			}
			if kb == eb {
				out[rb] = sb
				if next == hi {
					break
				}
				rb, kb, eb, sb = next, rowstr[next], rowstr[next+1], 0
				next++
			}
		}
	}
	// One lane left: the rest of its row.
	for k := ka; k < ea; k++ {
		sa += a[k] * in[colidx[k]]
	}
	out[ra] = sa
}

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

// randomCSR returns a CSR matrix of n rows whose lengths run from 0 to
// 19, more than two chunks of eight lanes, with values from fill and
// columns anywhere in [0, n).
func randomCSR(rng *rand.Rand, n int, fill func() float64) (rowstr []int, colidx []int32, a []float64) {
	rowstr = make([]int, n+1)
	for i := 0; i < n; i++ {
		l := rng.Intn(20)
		if rng.Intn(4) == 0 {
			l = 0
		}
		for k := 0; k < l; k++ {
			colidx = append(colidx, int32(rng.Intn(n)))
			a = append(a, fill())
		}
		rowstr[i+1] = len(a)
	}
	return rowstr, colidx, a
}

// sellOf converts a copy of a CSR matrix, leaving the original for the
// oracle: with spare room past its non-zeros, newSell converts the copy
// in place when the padding fits, and without, into new arrays.
func sellOf(t testing.TB, rowstr []int, colidx []int32, a []float64, n, threads, spare int) *sell {
	t.Helper()
	c := append(make([]int32, 0, len(colidx)+spare), colidx...)
	v := append(make([]float64, 0, len(a)+spare), a...)
	m, err := newSell(rowstr, c, v, n, threads)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSellMatchesSpmvRows holds the SELL mat-vec to spmvRows bit for
// bit, any two NaNs equal, at every simd.Width the host has (8, 4 and
// 1): random matrices of n rows, n rarely a multiple of 8, nested in
// the blocks of one to three workers, every row length from 0 to past
// two chunks of eight, and an in of rowcheck.Kernels' mix (zeros of
// both signs, infinities, NaNs, subnormals) in every other trial, with
// in[0], where every padding slot points, an infinity or a NaN in
// every trial of the mix: a padded lane must stay masked, never add a
// 0·Inf. The rows come through one call over [0, n) and through the
// position ranges of a two-way and a ragged split. Every other matrix
// is converted in place, the others into new arrays.
func TestSellMatchesSpmvRows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	plain, mixed := rowcheck.Values(44), rowcheck.Values(45)
	rowcheck.Modes(t, func(width int) {
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(300)
			threads := 1 + trial%3
			rowstr, colidx, a := randomCSR(rng, n, plain)
			m := sellOf(t, rowstr, colidx, a, n, threads, trial%2*len(a))
			fill := plain
			if trial%2 == 1 {
				fill = mixed
			}
			in := make([]float64, n)
			for i := range in {
				in[i] = fill()
			}
			if trial%2 == 1 {
				in[0] = []float64{math.Inf(1), math.Inf(-1), math.NaN()}[trial/2%3]
			}
			want := make([]float64, n)
			spmvRows(rowstr, colidx, a, in, want, 0, n)
			for _, cuts := range [][]int{{0, n}, {0, n / 2, n}, {0, n / 3, n/3 + 5, n}} {
				got := make([]float64, n)
				for i := range got {
					got[i] = -7
				}
				for i := 1; i < len(cuts); i++ {
					m.mul(in, got, min(cuts[i-1], n), min(cuts[i], n))
				}
				for i := range want {
					g, w := got[i], want[i]
					if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Fatalf("width %d trial %d (n %d, threads %d, cuts %v): out[%d] = %v (%#x), spmvRows %v (%#x)",
							width, trial, n, threads, cuts, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	})
}

// TestNewSellRefusesBadMatrix: newSell refuses a column outside
// [0, n), either way, before any kernel could load through it, and
// check refuses chunks whose lane lengths or slots disagree and a
// position whose row belongs to another static block.
func TestNewSellRefusesBadMatrix(t *testing.T) {
	p := classes['S']
	rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
	for _, bad := range []int32{int32(p.na), -1} {
		c := append([]int32(nil), colidx...)
		c[len(c)/2] = bad
		if _, err := newSell(rowstr, c, append([]float64(nil), a...), p.na, 2); err == nil {
			t.Errorf("column %d accepted", bad)
		}
	}
	for name, corrupt := range map[string]func(m *sell){
		"lane longer than its chunk": func(m *sell) { m.lens[3][0] = int32((m.off[4]-m.off[3])/8 + 1) },
		"length past the live lanes": func(m *sell) { m.lens[len(m.lens)-1][7] = 1 },
		"slots not a column of 8":    func(m *sell) { m.off[5]++ },
		"row outside its block":      func(m *sell) { m.row[0], m.row[len(m.row)-1] = m.row[len(m.row)-1], m.row[0] },
	} {
		m := sellOf(t, rowstr, colidx, a, p.na, 2, 0)
		corrupt(m)
		if err := m.check(p.na, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// BenchmarkSpmv is one class-W mat-vec on one thread in SELL-8-σ at
// each simd.Width the host has; BenchmarkSpmvRows is the CSR two-lane
// loop it replaced, on the same matrix (EXPERIMENTS.md, "CG's rows in
// lanes").
func BenchmarkSpmv(b *testing.B) {
	p := classes['W']
	rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
	m, err := newSell(rowstr, colidx, a, p.na, 1)
	if err != nil {
		b.Fatal(err)
	}
	in, out := make([]float64, p.na), make([]float64, p.na)
	for i := range in {
		in[i] = 1
	}
	host := simd.Width
	defer func() { simd.Width = host }()
	for _, width := range []int{8, 4, 1} {
		if width > host {
			continue
		}
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			simd.Width = width
			b.SetBytes(int64(12 * len(a)))
			for i := 0; i < b.N; i++ {
				m.mul(in, out, 0, p.na)
			}
		})
	}
}

func BenchmarkSpmvRows(b *testing.B) {
	p := classes['W']
	rowstr, colidx, a := makea(p.na, p.nonzer, rcond, p.shift)
	in, out := make([]float64, p.na), make([]float64, p.na)
	for i := range in {
		in[i] = 1
	}
	b.SetBytes(int64(12 * len(a)))
	for i := 0; i < b.N; i++ {
		spmvRows(rowstr, colidx, a, in, out, 0, p.na)
	}
}
