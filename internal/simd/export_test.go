package simd

// ToLanesGo and FromLanesGo run the movers' portable bodies on every
// non-nil row: the oracle the wide moves are held to.

func ToLanesGo[V Cell](dst []V, rows [][]float64, g *Lines, first int) {
	for c, row := range rows {
		if row != nil {
			toLanesGo(dst, c, row, g, first)
		}
	}
}

func FromLanesGo[V Cell](rows [][]float64, src []V, g *Lines, first int) {
	for c, row := range rows {
		if row != nil {
			fromLanesGo(row, src, c, g, first)
		}
	}
}
