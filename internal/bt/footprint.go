package bt

import (
	"fmt"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes a BT run of the given class
// and thread count allocates: the nscore field (twenty-five rows of n³
// points: U, Rhs and Forcing, five components each, six primitive
// fields and ComputeRHS's four scratch rows) and the per-thread lane
// scratch of eight lines (the upper block diagonal and the rhs, n cells
// each, and eight blocks and a cell's state besides). The estimate
// feeds the harness
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
	// cc + rhs per cell; fjac/njac rings, aa and bb; u and s. 8 lanes.
	scratch := uint64(threads) * 8 * ((25+5)*n + 8*25 + 5 + 3) * 8
	return nscore.FieldBytes(spec.size, false) + scratch, nil
}
