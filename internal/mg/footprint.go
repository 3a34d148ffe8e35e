package mg

import "fmt"

// Footprint estimates the working-set bytes an MG run of the given
// class and thread count allocates: the u and r grids on every level of
// the hierarchy (levels 1..lt, each (2^k+2)³ points with ghost shells)
// plus the top-level v grid, and each worker's three scratch rows of
// the finest extent (findCharges' generator row and the face- and
// edge-sum rows of resid and psinv). Feeds the harness memory admission
// guard; dominant arrays only.
func Footprint(class byte, threads int) (uint64, error) {
	p, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("mg: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	var total uint64
	for k := 1; k <= p.lt; k++ {
		side := uint64((1 << k) + 2)
		total += 2 * side * side * side * 8 // u[k] + r[k]
	}
	top := uint64((1 << p.lt) + 2)
	total += top * top * top * 8           // v
	total += uint64(threads) * 3 * top * 8 // per worker: Benchmark.rows and sums
	return total, nil
}
