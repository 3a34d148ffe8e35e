package mg

import "npbgo/internal/randdp"

// zran3 initializes the right-hand side z: it fills the interior with
// the NPB pseudorandom field (one generator jump of nx per row and
// nx*ny per plane, so the field matches the reference implementation
// point-for-point), locates the mm largest and mm smallest interior
// values, then zeroes the field and plants +1 at the maxima positions
// and -1 at the minima positions — a set of 2*mm point charges.
func zran3(z []float64, l level, nx, ny int) {
	const mm = 10
	zero3(z)

	// A copy of a generator forks the stream: each plane starts nx*ny
	// draws after the previous one, each row nx after the previous row.
	plane := randdp.New(randdp.DefaultSeed, randdp.A)
	d1 := nx // interior row length
	for i3 := 1; i3 < l.n3-1; i3++ {
		row := plane
		for i2 := 1; i2 < l.n2-1; i2++ {
			elems := row
			off := l.at(1, i2, i3)
			elems.Fill(z[off : off+d1])
			row.Skip(nx)
		}
		plane.Skip(nx * ny)
	}

	// Track the mm largest and mm smallest interior values. The lists
	// are kept sorted (ascending for maxima candidates, descending for
	// minima candidates) by insertion, mirroring mg.f's bubble.
	large := make([]cand, 0, mm+1)
	small := make([]cand, 0, mm+1)
	for i3 := 1; i3 < l.n3-1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			for i1 := 1; i1 < l.n1-1; i1++ {
				off := l.at(i1, i2, i3)
				v := z[off]
				if len(large) < mm || v > large[0].val {
					large = insertAsc(large, cand{v, off}, mm)
				}
				if len(small) < mm || v < small[0].val {
					small = insertDesc(small, cand{v, off}, mm)
				}
			}
		}
	}

	zero3(z)
	for _, c := range small {
		z[c.off] = -1.0
	}
	for _, c := range large {
		z[c.off] = +1.0
	}
	comm3(z, l)
}

// cand is one extremum candidate: a field value and its flat offset.
type cand struct {
	val float64
	off int
}

// insertAsc inserts c into list kept ascending by val, evicting the
// smallest element when the list exceeds capacity m.
func insertAsc(list []cand, c cand, m int) []cand {
	list = append(list, c)
	for i := len(list) - 1; i > 0 && list[i].val < list[i-1].val; i-- {
		list[i], list[i-1] = list[i-1], list[i]
	}
	if len(list) > m {
		copy(list, list[1:])
		list = list[:m]
	}
	return list
}

// insertDesc inserts c into list kept descending by val, evicting the
// largest element when the list exceeds capacity m.
func insertDesc(list []cand, c cand, m int) []cand {
	list = append(list, c)
	for i := len(list) - 1; i > 0 && list[i].val > list[i-1].val; i-- {
		list[i], list[i-1] = list[i-1], list[i]
	}
	if len(list) > m {
		copy(list, list[1:])
		list = list[:m]
	}
	return list
}
