package sp

import (
	"fmt"

	"npbgo/internal/nscore"
)

// Footprint estimates the working-set bytes an SP run of the given
// class and thread count allocates: the nscore field with the Speed
// grid (36 scalar-grid equivalents over n³ points, ComputeRHS's
// component-major rows included) plus the per-thread pentadiagonal line
// scratch. Feeds the harness memory admission guard;
// dominant arrays only.
func Footprint(class byte, threads int) (uint64, error) {
	spec, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("sp: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	n := uint64(spec.size)
	scratch := uint64(threads) * 17 * n * 8 // lhs/lhsp/lhsm (5n) + cv/rho (n)
	return nscore.FieldBytes(spec.size, true) + scratch, nil
}
