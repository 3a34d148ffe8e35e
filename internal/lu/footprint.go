package lu

import (
	"fmt"
	"unsafe"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes an LU run of the given
// class and thread count allocates: the rows of newBenchmark's one
// nscore.Rows call (u, rsd, frct and the operator's) and each worker's
// sweep scratch, one wave's blocks and vectors in lane form plus its
// band's wavefront schedule. A band of r rows of the n-2 interior
// columns holds at most r(n-2)/8 full waves and, per diagonal, one that
// is not full, about n-2 for each of the min(threads, n-2) bands that
// are not empty. Feeds the harness memory admission guard; dominant
// arrays only.
func Footprint(class byte, threads int) (uint64, error) {
	spec, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("lu: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	n := uint64(spec.size)
	n3 := n * n * n
	bands := min(uint64(threads), n-2)
	waves := (n-2)*(n-2)/8 + bands*(n-2)
	scratch := uint64(threads)*uint64(unsafe.Sizeof(sweepScratch{})) + waves*uint64(unsafe.Sizeof(wave{}))
	return nscore.RowsBytes(fieldRows, int(n3)) + scratch, nil
}
