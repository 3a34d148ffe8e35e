package simd

import "unsafe"

// The movers carry a group of up to eight grid lines between the
// component-major rows of a field and lane form, where element c of
// cell l of line q sits at [l][c][q] and one register holds a cell's
// element of all eight lines (the form BT's and SP's lane kernels
// compute in). The portable bodies below move one double at a time; at
// Width 8 the wide moves of movers_amd64.s take each call they can:
//
//   - lines with Stride 1 (xi lines) run along the row, so eight cells
//     of eight lines are an 8×8 tile of doubles: eight row loads, an
//     in-register transpose and eight lane-form stores, or the reverse;
//   - lines whose live starts form at most two runs of adjacent points
//     (eta and zeta lines, queued along i) put one cell of the group in
//     one or two 64-byte stretches of the row: one or two loads merged
//     under a lane mask, or two masked stores.
//
// Every wide load and store of a row is masked to the live lines and
// to the cells the call moves, so a wide move touches exactly the
// elements the portable body does. A call checks that all of them lie
// in the rows once, up front, and otherwise, or when the starts form
// more than two runs, runs the portable body, whose index checks then
// panic at the first element outside a row.

// Lines is a group of up to eight lines of a grid: N of them, line q's
// first point at Start[q] of a row and its points Stride apart. The
// starts of lanes N to 7 are not read.
type Lines struct {
	N      int    // lines in the group, 1 to 8
	Start  [8]int // row offset of each line's first point
	Stride int    // distance in a row between consecutive points of a line
}

// Cell is the lane form of one cell: 3, 5 or 8 elements of eight lanes
// each.
type Cell interface {
	~[3][8]float64 | ~[5][8]float64 | ~[8][8]float64
}

// ToLanes copies cells first to first+len(dst)-1 of the lines g from
// rows into lane form: lane q of dst[l][c] takes
// rows[c][g.Start[q]+(first+l)*g.Stride] for the live lanes q < g.N
// and 0 for the lanes after. A nil row leaves its element of dst as it
// is.
func ToLanes[V Cell](dst []V, rows [][]float64, g *Lines, first int) {
	if len(dst) == 0 || len(rows) == 0 {
		return
	}
	if Width >= 8 {
		if off, ok := offsets(rows, g, first, len(dst)); ok {
			_ = dst[0][len(rows)-1] // a cell has an element for every row
			p, stride := &dst[0][0], unsafe.Sizeof(dst[0])
			if g.Stride == 1 {
				tileToLanes(p, stride, &rows[0], len(rows), &off, g.N, len(dst))
				return
			}
			if split, second := splitRuns(&off, g.N); split > 0 {
				runsToLanes(p, stride, &rows[0], len(rows), off[0], second, split, g.N, g.Stride, len(dst))
				return
			}
		}
	}
	for c, row := range rows {
		if row != nil {
			toLanesGo(dst, c, row, g, first)
		}
	}
}

// FromLanes is ToLanes' inverse: it writes lane q < g.N of src[l][c]
// to rows[c][g.Start[q]+(first+l)*g.Stride], for cells first to
// first+len(src)-1 of the lines g, and nothing else. The lines must not
// share a point. A nil row is skipped.
func FromLanes[V Cell](rows [][]float64, src []V, g *Lines, first int) {
	if len(src) == 0 || len(rows) == 0 {
		return
	}
	if Width >= 8 {
		if off, ok := offsets(rows, g, first, len(src)); ok {
			_ = src[0][len(rows)-1] // a cell has an element for every row
			p, stride := &src[0][0], unsafe.Sizeof(src[0])
			if g.Stride == 1 {
				tileFromLanes(&rows[0], len(rows), p, stride, &off, g.N, len(src))
				return
			}
			if split, second := splitRuns(&off, g.N); split > 0 {
				runsFromLanes(&rows[0], len(rows), p, stride, off[0], second, split, g.N, g.Stride, len(src))
				return
			}
		}
	}
	for c, row := range rows {
		if row != nil {
			fromLanesGo(row, src, c, g, first)
		}
	}
}

// toLanesGo is ToLanes on one row, a double at a time: the path below
// Width 8, and the wide moves' oracle.
func toLanesGo[V Cell](dst []V, c int, row []float64, g *Lines, first int) {
	live := min(max(g.N, 0), 8) // the compiler then drops v's index checks
	for l := range dst {
		v := &dst[l][c]
		p := (first + l) * g.Stride
		for q, st := range g.Start[:live] {
			v[q] = row[st+p]
		}
		clear(v[live:])
	}
}

// fromLanesGo is FromLanes on one row, a double at a time.
func fromLanesGo[V Cell](row []float64, src []V, c int, g *Lines, first int) {
	live := min(max(g.N, 0), 8) // as in toLanesGo
	for l := range src {
		v := &src[l][c]
		p := (first + l) * g.Stride
		for q, st := range g.Start[:live] {
			row[st+p] = v[q]
		}
	}
}

// offsets returns the row offset of cell first of each line of g, lanes
// N to 7 taking lane 0's, and whether every element the lines' cells
// first to first+cells-1 address lies in each non-nil row: the check a
// wide move makes once for all its accesses. It reports false for a
// group of no lines or more than eight, a Stride below 1 or no row.
func offsets(rows [][]float64, g *Lines, first, cells int) (off [8]int, ok bool) {
	n := -1 // the shortest row's length
	for _, row := range rows {
		if row != nil && (n < 0 || len(row) < n) {
			n = len(row)
		}
	}
	if g.N < 1 || g.N > 8 || g.Stride < 1 || first < 0 || first >= n {
		return off, false
	}
	// From a line's start to its last cell moved is last·Stride, which
	// must stay below n: checked by division, so nothing overflows.
	last := first + cells - 1
	if last > 0 && g.Stride > (n-1)/last {
		return off, false
	}
	span := last * g.Stride
	for q := range off {
		st := g.Start[0]
		if q < g.N {
			st = g.Start[q]
		}
		if st < 0 || st >= n-span {
			return off, false
		}
		off[q] = st + first*g.Stride
	}
	return off, true
}

// splitRuns reports how the live offsets off[:live] fall into runs of
// adjacent points: split is the lane the second run starts at, live if
// there is one run, and 0 if there are more than two; second is the
// offset lane 0 would have in the second run (its start less split),
// off[0] if there is none.
func splitRuns(off *[8]int, live int) (split, second int) {
	split = 1
	for split < live && off[split] == off[split-1]+1 {
		split++
	}
	if split == live {
		return split, off[0]
	}
	for q := split + 1; q < live; q++ {
		if off[q] != off[q-1]+1 {
			return 0, 0
		}
	}
	return split, off[split] - split
}
