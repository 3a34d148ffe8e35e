package bt

import (
	"fmt"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes a BT run of the given class
// and thread count allocates: the nscore field (twenty-five rows of n³
// points: U, Rhs and Forcing, five components each, six primitive
// fields and ComputeRHS's four scratch rows) and the per-thread lane
// scratch of four lines (five block arrays and the rhs, n cells each). The estimate feeds the harness
// memory admission guard — the paper's FT memory-limit anomaly (§5)
// generalized to every benchmark — so it tracks the dominant arrays,
// not every last slice.
func Footprint(class byte, threads int) (uint64, error) {
	spec, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("bt: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	n := uint64(spec.size)
	scratch := uint64(threads) * 4 * (5*25 + 5) * n * 8 // fjac/njac/aa/bb/cc + rhs, 4 lanes
	return nscore.FieldBytes(spec.size, false) + scratch, nil
}
