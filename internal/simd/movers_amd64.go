package simd

// The wide moves of movers_amd64.s (movers.go says what each does).

//go:noescape
func tileToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows int, off *[8]int, live, cells int)

//go:noescape
func tileFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, off *[8]int, live, cells int)

//go:noescape
func runsToLanes(dst *[8]float64, stride uintptr, rows *[]float64, nrows, first, second, split, live, step, cells int)

//go:noescape
func runsFromLanes(rows *[]float64, nrows int, src *[8]float64, stride uintptr, first, second, split, live, step, cells int)
