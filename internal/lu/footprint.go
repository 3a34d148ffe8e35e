package lu

import "fmt"

// Footprint estimates the working-set bytes an LU run of the given
// class and thread count allocates: the three 5-component n³ fields
// (u, rsd, frct); the per-thread jacobian scratch is constant-sized and
// folded in as a flat allowance. Feeds the harness memory admission
// guard; dominant arrays only.
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
	fields := 15 * n3 * 8                   // u + rsd + frct, 5 components each
	scratch := uint64(threads) * 4 * 25 * 8 // az/ay/ax/d
	return fields + scratch, nil
}
