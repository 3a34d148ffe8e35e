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

// triplet is one generated matrix element before duplicate summation.
type triplet struct {
	col int
	val float64
}

// makea generates the class-defining sparse symmetric matrix in CSR
// form: the weighted sum of outer products of random sparse vectors
// (geometrically decaying weights give condition number ~1/rcond),
// plus (rcond - shift) on the diagonal. Returns rowstr (0-based CSR row
// pointers over 0..n), colidx (0-based columns) and a (values).
func makea(n, nonzer int, rcond, shift float64) (rowstr []int, colidx []int, a []float64) {
	tran := randdp.New(randdp.DefaultSeed, randdp.A)
	// cg.f draws zeta once before makea; reproduce the stream position.
	tran.Next()

	// Row-major triplet buckets (1-based rows); duplicates are summed
	// during assembly in stable column order.
	perRow := make([][]triplet, n+1)

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
				perRow[irow] = append(perRow[irow], triplet{jcol, v[ivelt1] * scale})
			}
		}
		size *= ratio
	}
	for i := 1; i <= n; i++ {
		perRow[i] = append(perRow[i], triplet{i, rcond - shift})
	}

	// Assemble CSR, summing duplicates. cg.f's sparse() sums duplicates
	// during a counting-sort pass; we stable-sort each row by column so
	// summation within a (row, col) pair follows generation order (any
	// difference from the Fortran association is pure rounding, far
	// below the 1e-10 verification tolerance).
	rowstr = make([]int, n+1)
	nnz := 0
	for i := 1; i <= n; i++ {
		sortTripletsByCol(perRow[i])
		for k := 0; k < len(perRow[i]); k++ {
			if k == 0 || perRow[i][k].col != perRow[i][k-1].col {
				nnz++
			}
		}
	}
	colidx = make([]int, nnz)
	a = make([]float64, nnz)
	pos := 0
	for i := 1; i <= n; i++ {
		rowstr[i-1] = pos
		row := perRow[i]
		for k := 0; k < len(row); k++ {
			if k > 0 && row[k].col == row[k-1].col {
				a[pos-1] += row[k].val
				continue
			}
			colidx[pos] = row[k].col - 1
			a[pos] = row[k].val
			pos++
		}
	}
	rowstr[n] = pos
	return rowstr, colidx, a
}

// sortTripletsByCol stable-sorts a row's triplets by column with an
// insertion sort (rows are short, about (nonzer+1)^2 entries).
func sortTripletsByCol(row []triplet) {
	for i := 1; i < len(row); i++ {
		t := row[i]
		j := i - 1
		for j >= 0 && row[j].col > t.col {
			row[j+1] = row[j]
			j--
		}
		row[j+1] = t
	}
}
