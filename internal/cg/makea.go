package cg

import (
	"math"

	"npbgo/internal/randdp"
)

// sprnvc generates a sparse vector with nz distinct nonzero locations in
// [1, n], drawing both values and locations from the shared generator
// stream, exactly as cg.f's sprnvc: every attempt consumes two generator
// draws (value, location) whether or not the location is accepted, so
// the stream stays aligned with the reference implementation.
// mark is a caller-provided scratch of n+1 bools (1-based), reset before
// return. v and iv receive the values and (1-based) locations.
func sprnvc(n, nz int, tran *randdp.Gen, v []float64, iv []int, mark []bool) int {
	// Smallest power of two not less than n, for the portable
	// integer-from-double conversion.
	nn1 := 1
	for nn1 < n {
		nn1 *= 2
	}
	nzv := 0
	for nzv < nz {
		vecelt := tran.Next()
		vecloc := tran.Next()
		i := int(float64(nn1)*vecloc) + 1
		if i > n {
			continue
		}
		if mark[i] {
			continue
		}
		mark[i] = true
		v[nzv] = vecelt
		iv[nzv] = i
		nzv++
	}
	for k := 0; k < nzv; k++ {
		mark[iv[k]] = false
	}
	return nzv
}

// vecset sets element ival of the sparse vector (v, iv, nzv) to val,
// appending it if not present, as cg.f's vecset.
func vecset(v []float64, iv []int, nzv, ival int, val float64) int {
	for k := 0; k < nzv; k++ {
		if iv[k] == ival {
			v[k] = val
			return nzv
		}
	}
	v[nzv] = val
	iv[nzv] = ival
	return nzv + 1
}

// makea generates the class-defining sparse symmetric matrix in CSR
// form: the weighted sum of outer products of random sparse vectors
// (geometrically decaying weights give condition number ~1/rcond),
// plus (rcond - shift) on the diagonal. Returns rowstr (0-based CSR row
// pointers over 0..n), colidx (0-based columns, int32: with a that is
// 12 bytes a non-zero for the mat-vec to stream) and a (values).
//
// The n vectors are recorded first; one scatter pass over the columns
// in ascending order then builds every row column-sorted with no sort,
// the terms of one (row, column) pair summed in the order the generator
// produced their vectors and the diagonal term last. (cg.f's sparse()
// associates the same terms otherwise: rounding far below the 1e-10
// tolerance, but testdata/bitidentity.golden pins these bits.) The pass
// stays serial: it is bound by the first-touch page faults of colidx
// and a, which two workers take no faster than one.
func makea(n, nonzer int, rcond, shift float64) (rowstr []int, colidx []int32, a []float64) {
	tran := randdp.New(randdp.DefaultSeed, randdp.A)
	// cg.f draws zeta once before makea; reproduce the stream position.
	tran.Next()

	// Vector i is vv/vi[i*w : i*w+cnt[i]] (0-based locations) with
	// outer-product weight size[i]. colptr counts the entries located at
	// each column; rowstr the entries each row can receive, one per
	// element of every vector that holds the row.
	w := nonzer + 1
	vv := make([]float64, n*w)
	vi := make([]int, n*w)
	cnt := make([]int, n)
	size := make([]float64, n)
	colptr := make([]int, n+1)
	rowstr = make([]int, n+1)
	mark := make([]bool, n+1)

	sz := 1.0
	ratio := math.Pow(rcond, 1.0/float64(n))
	for i := 0; i < n; i++ {
		v, iv := vv[i*w:(i+1)*w], vi[i*w:(i+1)*w]
		nzv := sprnvc(n, nonzer, &tran, v, iv, mark)
		nzv = vecset(v, iv, nzv, i+1, 0.5)
		for k := 0; k < nzv; k++ {
			iv[k]--
			colptr[iv[k]+1]++
			rowstr[iv[k]+1] += nzv
		}
		cnt[i], size[i] = nzv, sz
		sz *= ratio
	}

	// Row r's slack segment starts at rowstr[r] and is filled up to
	// tail[r].end, its last entry's column being tail[r].col; the slack
	// totals the NPB bound of n*(nonzer+1)^2.
	tail := make([]struct{ end, col int }, n)
	for j := 0; j < n; j++ {
		tail[j].end, tail[j].col = rowstr[j], -1
		colptr[j+1] += colptr[j]
		rowstr[j+1] += rowstr[j]
	}

	// colref lists, per column, the flat index of every vector entry
	// located there, in generation order.
	colref := make([]int, colptr[n])
	next := append([]int(nil), colptr[:n]...)
	for i := 0; i < n; i++ {
		for k := i * w; k < i*w+cnt[i]; k++ {
			colref[next[vi[k]]] = k
			next[vi[k]]++
		}
	}

	colidx = make([]int32, rowstr[n])
	a = make([]float64, rowstr[n])
	// the scatter pass: append (j, value), or add into the row's last entry when that is already column j
	for j := 0; j < n; j++ {
		for _, ref := range colref[colptr[j]:colptr[j+1]] {
			i := ref / w
			scale := size[i] * vv[ref]
			for k := i * w; k < i*w+cnt[i]; k++ {
				t, val := &tail[vi[k]], vv[k]*scale
				if t.col == j {
					a[t.end-1] += val
				} else {
					colidx[t.end], a[t.end] = int32(j), val
					t.end, t.col = t.end+1, j
				}
			}
		}
		// Vector j holds location j (vecset), so row j ends in column j.
		a[tail[j].end-1] += rcond - shift
	}

	// Close the slack up in place.
	pos := 0
	for r := 0; r < n; r++ {
		lo, hi := rowstr[r], tail[r].end
		copy(colidx[pos:], colidx[lo:hi])
		copy(a[pos:], a[lo:hi])
		rowstr[r] = pos
		pos += hi - lo
	}
	rowstr[n] = pos
	return rowstr, colidx[:pos], a[:pos]
}
