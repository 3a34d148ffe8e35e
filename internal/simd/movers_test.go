package simd_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"npbgo/internal/rowcheck"
	"npbgo/internal/simd"
)

// pad is the number of sentinel elements (rows) and cells (lane form)
// on each side of every slice a mover gets.
const pad = 3

// sentinel fills every destination before a move: a NaN payload that
// no random source value is allowed to be.
const sentinel = 0x7ff4_dead_beef_0001

// bits draws a random double, any bit pattern but the sentinel's:
// NaNs, infinities, subnormals and zeros of both signs among them.
func bits(rng *rand.Rand) float64 {
	for {
		if b := rng.Uint64(); b != sentinel {
			return math.Float64frombits(b)
		}
	}
}

// padded returns a slice of n elements inside a backing array with pad
// more on each side, every element set by fill, and the backing array.
func padded[T any](n int, fill func() T) (inner, all []T) {
	all = make([]T, n+2*pad)
	for i := range all {
		all[i] = fill()
	}
	return all[pad : pad+n : pad+n], all
}

// sentinelCell is a lane-form cell of sentinels.
func sentinelCell[V simd.Cell]() V {
	var v V
	for c := range len(v) {
		for q := range 8 {
			v[c][q] = math.Float64frombits(sentinel)
		}
	}
	return v
}

// sameCells compares two padded lane forms bit for bit.
func sameCells[V simd.Cell](t *testing.T, what string, got, want []V) {
	t.Helper()
	for l := range want {
		for c := range len(want[l]) {
			for q := range 8 {
				g, w := math.Float64bits(got[l][c][q]), math.Float64bits(want[l][c][q])
				if g != w {
					t.Fatalf("%s: cell %d (%d past the pad) element %d lane %d is %#x, portable body %#x", what, l, l-pad, c, q, g, w)
				}
			}
		}
	}
}

// sameRows compares two sets of padded rows bit for bit.
func sameRows(t *testing.T, what string, got, want [][]float64) {
	t.Helper()
	for c := range want {
		for i := range want[c] {
			if g, w := math.Float64bits(got[c][i]), math.Float64bits(want[c][i]); g != w {
				t.Fatalf("%s: row %d element %d (%d past the pad) is %#x, portable body %#x", what, c, i, i-pad, g, w)
			}
		}
	}
}

// checkMoves holds ToLanes and FromLanes at the current simd.Width to
// their portable bodies on rows of length n (row nilRow nil, or none if
// negative). Every destination starts as sentinels and sits between pad
// sentinels on each side, so the comparison shows any element written
// that the portable body does not write: a lane past g.N, a cell past
// the moved ones, an element of a row no line reaches, one outside the
// slices. ToLanes's destinations must also hold 0 in lanes past g.N.
func checkMoves[V simd.Cell](t *testing.T, rng *rand.Rand, what string, n, nilRow int, g *simd.Lines, first, cells int) {
	t.Helper()
	var e V
	rows := make([][]float64, len(e))
	for c := range rows {
		if c != nilRow {
			rows[c], _ = padded(n, func() float64 { return bits(rng) })
		}
	}
	got, gotAll := padded(cells, sentinelCell[V])
	want, wantAll := padded(cells, sentinelCell[V])
	simd.ToLanes(got, rows, g, first)
	simd.ToLanesGo(want, rows, g, first)
	sameCells(t, what+": ToLanes", gotAll, wantAll)
	for l := range got {
		for c := range len(got[l]) {
			for q := g.N; q < 8; q++ {
				if c != nilRow && math.Float64bits(got[l][c][q]) != 0 {
					t.Fatalf("%s: ToLanes left %#x in dead lane %d of cell %d", what, math.Float64bits(got[l][c][q]), q, l)
				}
			}
		}
	}

	src, _ := padded(cells, func() V {
		var v V
		for c := range len(v) {
			for q := range 8 {
				v[c][q] = bits(rng)
			}
		}
		return v
	})
	gotRows, wantRows := make([][]float64, len(e)), make([][]float64, len(e))
	gotAllRows, wantAllRows := make([][]float64, len(e)), make([][]float64, len(e))
	for c := range rows {
		if c != nilRow {
			s := func() float64 { return math.Float64frombits(sentinel) }
			gotRows[c], gotAllRows[c] = padded(n, s)
			wantRows[c], wantAllRows[c] = padded(n, s)
		}
	}
	simd.FromLanes(gotRows, src, g, first)
	simd.FromLanesGo(wantRows, src, g, first)
	sameRows(t, what+": FromLanes", gotAllRows, wantAllRows)
}

// drawLines draws a group of live lines whose points, stride apart,
// are distinct across the group for cells first to first+cells-1. For
// stride 1 each line gets its own stretch of the row, in random order.
// For larger strides the starts fall into runs runs of adjacent points
// (0: live distinct points of one stride's window, in random order, so
// mostly more than two runs), each run after the last or a whole span
// of lines further on. It returns the group and the smallest row length
// that holds every point moved.
func drawLines(rng *rand.Rand, live, runs, stride, first, cells int) (simd.Lines, int) {
	g := simd.Lines{N: live, Stride: stride}
	span := (first + cells) * stride // one line's points and then some
	switch {
	case stride == 1:
		slot := span + rng.Intn(4)
		for q, s := range rng.Perm(live) {
			g.Start[q] = s*slot + rng.Intn(slot-span+1)
		}
	case runs == 0:
		base := rng.Intn(span)
		for q, s := range rng.Perm(stride)[:live] {
			g.Start[q] = base + s
		}
	default:
		split := live
		if runs == 2 && live > 1 {
			split = 1 + rng.Intn(live-1)
		}
		p := rng.Intn(stride)
		for q := range live {
			if q == split {
				if rng.Intn(2) == 0 && live+3 < stride {
					p += 1 + rng.Intn(3) // the same window: the lines still miss each other
				} else {
					p += span + rng.Intn(stride)
				}
			}
			g.Start[q] = p
			p++
		}
	}
	n := 0
	for _, st := range g.Start[:live] {
		n = max(n, st+(first+cells-1)*stride+1)
	}
	// Lanes past live hold starts a mover must not read.
	for q := live; q < 8; q++ {
		g.Start[q] = math.MinInt
	}
	return g, n
}

// TestMoversMatchPortable holds the movers to their portable bodies at
// every vector level this host has (rowcheck.Modes), bit for bit, on
// random groups: live counts 1 to 8, cells 1 to 40 from a random first
// cell, line strides 1, n and n² for n = 12 and 20, starts in one run,
// two (split at random, the second run next to the first or far on) or
// more (the portable body's case), rows that end at the last point
// moved or a few elements later, and the three lane-form cell sizes,
// one row nil or none.
func TestMoversMatchPortable(t *testing.T) {
	rowcheck.Modes(t, func(width int) {
		rng := rand.New(rand.NewSource(61))
		for _, n := range []int{12, 20} {
			for _, stride := range []int{1, n, n * n} {
				for trial := range 150 {
					live, cells, first := 1+rng.Intn(8), 1+rng.Intn(40), rng.Intn(3)
					runs := trial % 3
					g, size := drawLines(rng, live, runs, stride, first, cells)
					size += rng.Intn(2) * rng.Intn(4)
					what := fmt.Sprintf("width %d, stride %d, %d lines %v, cells %d from %d, rows of %d", width, stride, live, g.Start[:live], cells, first, size)
					nilRow := rng.Intn(4) - 1
					switch trial / 3 % 3 {
					case 0:
						checkMoves[[3][8]float64](t, rng, what, size, nilRow, &g, first, cells)
					case 1:
						checkMoves[[5][8]float64](t, rng, what, size, nilRow, &g, first, cells)
					default:
						checkMoves[[8][8]float64](t, rng, what, size, nilRow, &g, first, cells)
					}
				}
			}
		}
	})
}

// TestMoverTileEndsAtRowEnd moves xi-like lines whose last 8×8 tile
// ends exactly at the end of a row, whole tiles and a short one: a
// tile's loads and stores must stay inside the row.
func TestMoverTileEndsAtRowEnd(t *testing.T) {
	rowcheck.Modes(t, func(width int) {
		rng := rand.New(rand.NewSource(8))
		for _, cells := range []int{8, 16, 12, 7, 1} {
			for live := 1; live <= 8; live++ {
				g := simd.Lines{N: live, Stride: 1}
				for q := range live {
					g.Start[q] = q * cells
				}
				size := live * cells
				what := fmt.Sprintf("width %d, %d lines of %d cells ending the row", width, live, cells)
				checkMoves[[5][8]float64](t, rng, what, size, -1, &g, 0, cells)
			}
		}
	})
}

// TestMoversPanicOutsideRows: a line that runs one element past a row,
// or starts before it, makes the movers panic at every level, as the
// portable body's index check does, rather than move anything outside
// the row.
func TestMoversPanicOutsideRows(t *testing.T) {
	rowcheck.Modes(t, func(width int) {
		for _, stride := range []int{1, 12} {
			for _, shift := range []int{-1, 1} {
				const cells = 10
				g := simd.Lines{N: 8, Stride: stride}
				for q := range 8 {
					g.Start[q] = q // eight adjacent starts: one run
					if stride == 1 {
						g.Start[q] = q * cells // back to back
					}
				}
				size := g.Start[7] + (cells-1)*stride + 1
				if shift < 0 {
					g.Start[0] = -1
				} else {
					size--
				}
				rows := [][]float64{make([]float64, size)}
				dst := make([][3][8]float64, cells)
				for name, move := range map[string]func(){
					"ToLanes":   func() { simd.ToLanes(dst, rows, &g, 0) },
					"FromLanes": func() { simd.FromLanes(rows, dst, &g, 0) },
				} {
					func() {
						defer func() {
							if recover() == nil {
								t.Errorf("width %d, stride %d, shift %d: %s did not panic", width, stride, shift, name)
							}
						}()
						move()
					}()
				}
			}
		}
	})
}

// FuzzMovers holds the movers at the host's level to their portable
// bodies, bit for bit, with the row values the fuzzer's raw bytes (any
// bit pattern) and the group's shape drawn from its integers.
func FuzzMovers(f *testing.F) {
	f.Add([]byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 0x80}, uint8(8), uint8(12), uint8(0), uint8(0), uint8(2), int64(1))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(5), uint8(24), uint8(1), uint8(1), uint8(1), int64(2))
	f.Add([]byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0}, uint8(3), uint8(40), uint8(2), uint8(2), uint8(0), int64(3))
	f.Fuzz(func(t *testing.T, raw []byte, live, cells, first, strideKind, runs uint8, seed int64) {
		if len(raw) < 8 {
			return
		}
		words := len(raw) / 8
		next := 0
		word := func() float64 {
			b := binary.LittleEndian.Uint64(raw[8*(next%words):])
			next++
			return math.Float64frombits(b)
		}
		n := 12
		stride := [3]int{1, n, n * n}[strideKind%3]
		nl, nc, nf := 1+int(live%8), 1+int(cells%40), int(first%3)
		g, size := drawLines(rand.New(rand.NewSource(seed)), nl, int(runs%3), stride, nf, nc)
		rows := make([][]float64, 5)
		for c := range rows {
			rows[c] = make([]float64, size)
			for i := range rows[c] {
				rows[c][i] = word()
			}
		}
		got, want := make([][5][8]float64, nc), make([][5][8]float64, nc)
		simd.ToLanes(got, rows, &g, nf)
		simd.ToLanesGo(want, rows, &g, nf)
		for l := range want {
			for c := range want[l] {
				for q := range want[l][c] {
					if math.Float64bits(got[l][c][q]) != math.Float64bits(want[l][c][q]) {
						t.Fatalf("ToLanes cell %d element %d lane %d: %#x, portable body %#x", l, c, q,
							math.Float64bits(got[l][c][q]), math.Float64bits(want[l][c][q]))
					}
				}
			}
		}
		gotRows, wantRows := make([][]float64, 5), make([][]float64, 5)
		for c := range rows {
			gotRows[c] = append([]float64(nil), rows[c]...)
			wantRows[c] = append([]float64(nil), rows[c]...)
		}
		for l := range want {
			for c := range want[l] {
				for q := range want[l][c] {
					want[l][c][q] = word()
				}
			}
		}
		simd.FromLanes(gotRows, want, &g, nf)
		simd.FromLanesGo(wantRows, want, &g, nf)
		for c := range rows {
			for i := range rows[c] {
				if math.Float64bits(gotRows[c][i]) != math.Float64bits(wantRows[c][i]) {
					t.Fatalf("FromLanes row %d element %d: %#x, portable body %#x", c, i,
						math.Float64bits(gotRows[c][i]), math.Float64bits(wantRows[c][i]))
				}
			}
		}
	})
}
