package cg

import (
	"math"
	"testing"

	"npbgo/internal/randdp"
)

// oracleTriplet is one generated matrix element before duplicate
// summation.
type oracleTriplet struct {
	col int
	val float64
}

// oracleMakea is the builder makea replaced, kept as the reference for
// its bits: every outer-product term is appended to its row's bucket in
// generation order, the buckets are stable-sorted by column, and
// duplicates are summed left to right, the diagonal term last.
func oracleMakea(n, nonzer int, rcond, shift float64) (rowstr []int, colidx []int, a []float64) {
	tran := randdp.New(randdp.DefaultSeed, randdp.A)
	tran.Next()
	perRow := make([][]oracleTriplet, n+1)
	v := make([]float64, nonzer+1)
	iv := make([]int, nonzer+1)
	mark := make([]bool, n+1)
	size := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for i := 1; i <= n; i++ {
		nzv := sprnvc(n, nonzer, &tran, v, iv, mark)
		nzv = vecset(v, iv, nzv, i, 0.5)
		for ivelt := 0; ivelt < nzv; ivelt++ {
			jcol := iv[ivelt]
			scale := size * v[ivelt]
			for ivelt1 := 0; ivelt1 < nzv; ivelt1++ {
				irow := iv[ivelt1]
				perRow[irow] = append(perRow[irow], oracleTriplet{jcol, v[ivelt1] * scale})
			}
		}
		size *= ratio
	}
	for i := 1; i <= n; i++ {
		perRow[i] = append(perRow[i], oracleTriplet{i, rcond - shift})
	}
	rowstr = make([]int, n+1)
	for i := 1; i <= n; i++ {
		row := perRow[i]
		for k := 1; k < len(row); k++ { // stable insertion sort by column
			t := row[k]
			j := k - 1
			for ; j >= 0 && row[j].col > t.col; j-- {
				row[j+1] = row[j]
			}
			row[j+1] = t
		}
		rowstr[i-1] = len(a)
		for k := range row {
			if k > 0 && row[k].col == row[k-1].col {
				a[len(a)-1] += row[k].val
				continue
			}
			colidx = append(colidx, row[k].col-1)
			a = append(a, row[k].val)
		}
	}
	rowstr[n] = len(a)
	return rowstr, colidx, a
}

// TestMakeaMatchesOracle holds makea to the replaced builder bit for
// bit at classes S, W and A, and on a matrix small and dense enough that
// most (row, column) pairs receive several terms and sprnvc draws a
// vector's own index (vecset then overwrites instead of appending).
func TestMakeaMatchesOracle(t *testing.T) {
	cases := []struct {
		name      string
		n, nonzer int
		shift     float64
	}{
		{"dense", 12, 5, 10},
		{"S", 1400, 7, 10},
		{"W", 7000, 8, 12},
		{"A", 14000, 11, 20},
	}
	for _, c := range cases {
		if testing.Short() && c.name == "A" {
			continue
		}
		wr, wc, wa := oracleMakea(c.n, c.nonzer, rcond, c.shift)
		gr, gc, ga := makea(c.n, c.nonzer, rcond, c.shift)
		if len(gr) != len(wr) || len(gc) != len(wc) || len(ga) != len(wa) {
			t.Fatalf("%s: lengths %d/%d/%d, oracle %d/%d/%d", c.name, len(gr), len(gc), len(ga), len(wr), len(wc), len(wa))
		}
		for i := range wr {
			if gr[i] != wr[i] {
				t.Fatalf("%s: rowstr[%d] = %d, oracle %d", c.name, i, gr[i], wr[i])
			}
		}
		for k := range wa {
			if int(gc[k]) != wc[k] || math.Float64bits(ga[k]) != math.Float64bits(wa[k]) {
				t.Fatalf("%s: entry %d = (%d, %x), oracle (%d, %x)", c.name, k, gc[k], math.Float64bits(ga[k]), wc[k], math.Float64bits(wa[k]))
			}
		}
		if c.name != "dense" {
			continue
		}
		if len(wa) >= c.n*(c.nonzer+1)*(c.nonzer+1)/2 {
			t.Fatalf("dense case sums too few duplicates: %d entries", len(wa))
		}
		tran := randdp.New(randdp.DefaultSeed, randdp.A)
		tran.Next()
		v, iv, mark := make([]float64, c.nonzer+1), make([]int, c.nonzer+1), make([]bool, c.n+1)
		own := 0
		for i := 1; i <= c.n; i++ {
			if nzv := sprnvc(c.n, c.nonzer, &tran, v, iv, mark); vecset(v, iv, nzv, i, 0.5) == nzv {
				own++
			}
		}
		if own == 0 {
			t.Fatal("dense case draws no vector holding its own index")
		}
	}
}

// BenchmarkMakea is the matrix build of CG.W, most of cg.setup_s.
func BenchmarkMakea(b *testing.B) {
	p := classes['W']
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		makea(p.na, p.nonzer, rcond, p.shift)
	}
}
