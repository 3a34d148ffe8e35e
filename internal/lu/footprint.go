package lu

import (
	"fmt"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes an LU run of the given
// class and thread count allocates: the three 5-component n³ fields
// (u, rsd, frct), the operator's component-major rows and each worker's
// row of lane blocks (per group of four points, four 5x5 blocks and
// four 5-vector states of four lanes). Feeds the harness memory
// admission guard; dominant arrays only.
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
	fields := 15 * n3 * 8 // u + rsd + frct, 5 components each
	groups := (n + 1) / 4 // of the n-2 interior points of a row
	scratch := uint64(threads) * groups * 4 * (25 + 5) * 4 * 8
	return fields + nscore.RowsBytes(operatorRows, int(n3)) + scratch, nil
}
