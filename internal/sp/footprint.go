package sp

import (
	"fmt"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes an SP run of the given
// class and thread count allocates: the nscore field with the Speed
// grid (26 rows of n³ points: U, Rhs and Forcing, five components
// each, ten rows of primitives and scratch, and Speed), each worker's
// lane group (n cells of eight lanes: the rhs and three factor rows, 5
// doubles each, and 8 scalars) and the dissipation table (5 doubles a
// cell). Feeds the harness memory admission guard; dominant arrays
// only.
func Footprint(class byte, threads int) (uint64, error) {
	spec, ok := code.Classes[class]
	if !ok {
		return 0, fmt.Errorf("sp: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	n := uint64(spec.Size)
	groups := uint64(threads) * n * 8 * (4*5 + 8) * 8
	return nscore.FieldBytes(spec.Size, true) + groups + n*5*8, nil
}
