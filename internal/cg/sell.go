package cg

import (
	"fmt"

	"npbgo/internal/team"
)

//go:generate go run ../lanegen

// sigma is the window, in rows, inside which newSell sorts rows by
// length before cutting them into chunks of eight. It pads W's matrix
// by 4.6 %, where 8 pads 46 % and 1024 0.7 % (DESIGN.md §37).
const sigma = 128

// sell is the matrix in SELL-8-σ form (Kreutzer et al., SIAM J. Sci.
// Comput. 2014). Positions order the rows: each static block of the
// team's rows, sorted longest first inside windows of sigma rows, so
// that a chunk, eight consecutive positions of one window, never holds
// rows of two blocks. A chunk stores its columns one after another,
// each as its eight lanes' values and columns side by side; a lane past
// its row's end is padding, value 0 and column 0, which the kernel
// masks rather than adds.
type sell struct {
	start []int      // chunk c's lanes are positions [start[c], start[c+1])
	off   []int      // its slots are [off[c], off[c+1]) of val and col
	lens  [][8]int32 // its lanes' row lengths, 0 past the live lanes
	row   []int32    // the row at each position
	val   []float64
	col   []int32
	nnz   int
}

// newSell converts makea's CSR matrix of n rows into SELL-8-σ, nested
// in the static blocks of a team of threads workers, and checks it. It
// takes colidx and a over: the SELL arrays reuse their storage, which
// makea allocated at the NPB bound, whenever the slots fit in it, so
// the matrix is never held twice. A window's rows are contiguous in CSR
// and its chunks in SELL, windows in the same order in both, and a
// window's chunks take at least its non-zeros' room, so moving the
// windows last to first, each through a scratch copy, never overwrites
// one still to move.
func newSell(rowstr []int, colidx []int32, a []float64, n, threads int) (*sell, error) {
	m := &sell{row: make([]int32, n), nnz: rowstr[n]}
	length := func(r int32) int { return rowstr[r+1] - rowstr[r] }
	var wins []int // each window's first position, then n
	slots, most := 0, 0
	for w := 0; w < threads; w++ {
		lo, hi := team.Block(0, n, threads, w)
		for wlo := lo; wlo < hi; wlo += sigma {
			whi := min(wlo+sigma, hi)
			wins = append(wins, wlo)
			most = max(most, rowstr[whi]-rowstr[wlo])
			// Longest first, ties in row order: an insertion sort.
			var key [sigma]struct{ n, row int32 }
			for i := range key[:whi-wlo] {
				next := struct{ n, row int32 }{int32(length(int32(wlo + i))), int32(wlo + i)}
				j := i
				for ; j > 0 && next.n > key[j-1].n; j-- {
					key[j] = key[j-1]
				}
				key[j] = next
			}
			win := m.row[wlo:whi]
			for i := range win {
				win[i] = key[i&(sigma-1)].row
			}
			for p := 0; p < len(win); p += 8 {
				m.start = append(m.start, wlo+p)
				m.off = append(m.off, slots)
				slots += 8 * length(win[p])
			}
		}
	}
	wins = append(wins, n)
	m.start, m.off = append(m.start, n), append(m.off, slots)
	m.lens = make([][8]int32, len(m.start)-1)
	if slots <= cap(a) && slots <= cap(colidx) {
		m.val, m.col = a[:slots], colidx[:slots]
	} else {
		m.val, m.col = make([]float64, slots), make([]int32, slots)
	}
	sv, sc := make([]float64, most), make([]int32, most)
	c := len(m.lens)
	for w := len(wins) - 2; w >= 0; w-- {
		base, end := rowstr[wins[w]], rowstr[wins[w+1]]
		copy(sv, a[base:end])
		copy(sc, colidx[base:end])
		for ; c > 0 && m.start[c-1] >= wins[w]; c-- {
			k0, k1 := m.off[c-1], m.off[c]
			clear(m.val[k0:k1])
			clear(m.col[k0:k1])
			for q, r := range m.row[m.start[c-1]:m.start[c]] {
				m.lens[c-1][q&7] = int32(length(r))
				lo, hi := rowstr[r]-base, rowstr[r+1]-base
				k := k0 + q
				for j, v := range sv[lo:hi] {
					m.val[k], m.col[k] = v, sc[lo+j]
					k += 8
				}
			}
		}
	}
	return m, m.check(n, threads)
}

// check verifies, once, what the mat-vec's kernel does not: that every
// column index is a row of the vector it loads from, that the chunks'
// positions, slots and lane lengths agree, so no load runs past a
// chunk, and that each static block's positions hold exactly its own
// rows, which the barriers the static schedule leaves out rely on.
func (m *sell) check(n, threads int) error {
	nc := len(m.lens)
	if len(m.start) != nc+1 || len(m.off) != nc+1 || m.start[0] != 0 || m.start[nc] != n ||
		m.off[0] != 0 || m.off[nc] != len(m.val) || len(m.col) != len(m.val) || len(m.row) != n {
		return fmt.Errorf("cg: SELL arrays of %d chunks disagree", nc)
	}
	for c := range m.lens {
		live, slots := m.start[c+1]-m.start[c], m.off[c+1]-m.off[c]
		if live < 1 || live > 8 || slots < 0 || slots%8 != 0 {
			return fmt.Errorf("cg: SELL chunk %d: %d lanes, %d slots", c, live, slots)
		}
		for q, l := range m.lens[c] {
			if l < 0 || int(l) > slots/8 || q >= live && l != 0 {
				return fmt.Errorf("cg: SELL chunk %d lane %d: length %d of %d columns", c, q, l, slots/8)
			}
		}
	}
	for k, j := range m.col {
		if uint32(j) >= uint32(n) {
			return fmt.Errorf("cg: SELL slot %d: column %d outside [0,%d)", k, j, n)
		}
	}
	seen := make([]bool, n)
	c := 0
	for w := 0; w < threads; w++ {
		lo, hi := team.Block(0, n, threads, w)
		for ; c < nc && m.start[c] < hi; c++ {
			if m.start[c] < lo || m.start[c+1] > hi {
				return fmt.Errorf("cg: SELL chunk %d crosses static block %d [%d,%d)", c, w, lo, hi)
			}
		}
		for p := lo; p < hi; p++ {
			r := int(m.row[p])
			if r < lo || r >= hi || seen[r] {
				return fmt.Errorf("cg: SELL position %d holds row %d, not one row of block [%d,%d)", p, r, lo, hi)
			}
			seen[r] = true
		}
	}
	return nil
}

// chunkAt returns the first chunk whose first position is at least p.
func (m *sell) chunkAt(p int) int {
	lo, hi := 0, len(m.start)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.start[mid] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mul computes the rows of out = A in that the chunks starting at
// positions [lo, hi) hold: one rowSumChunk call a chunk, its sums then
// stored to their rows. Every position range of a partition of [0, n)
// thus writes each row once. The kernel checks no column against in;
// check has held them below n, so in is checked here, once.
func (m *sell) mul(in, out []float64, lo, hi int) {
	if len(in) < len(m.row) {
		panic(fmt.Sprintf("cg: mat-vec of %d columns on %d values", len(m.row), len(in)))
	}
	for c := m.chunkAt(lo); m.start[c] < hi; c++ {
		var s [8]float64
		k0, k1 := m.off[c], m.off[c+1]
		rowSumChunk(&m.lens[c], &s, m.val[k0:k1], m.col[k0:k1], in)
		for q, r := range m.row[m.start[c]:m.start[c+1]] {
			out[r] = s[q&7]
		}
	}
}

// rowSum adds one column's term to a row's sum s: the mat-vec's step,
// which rowSumChunk (lanes.go) runs over the columns of a chunk, a row
// a lane, each summed from the +0 its caller stores, in storage order.
//
//lanegen:chunk
func rowSum(s, a *[1]float64, col *[1]int32, in []float64) {
	s[0] += a[0] * in[col[0]]
}
