//go:build !amd64

package simd

// Without amd64, Width is 1 and the movers never take a wide move.

func tileToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows int, off *[8]int, live, cells int) {
	panic("simd: no wide moves on this architecture")
}

func tileFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, off *[8]int, live, cells int) {
	panic("simd: no wide moves on this architecture")
}

func runsToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows, first, second, split, live, step, cells int) {
	panic("simd: no wide moves on this architecture")
}

func runsFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, first, second, split, live, step, cells int) {
	panic("simd: no wide moves on this architecture")
}
