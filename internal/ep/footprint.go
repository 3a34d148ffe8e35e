package ep

import "fmt"

// Footprint estimates the working-set bytes an EP run of the given
// class and thread count allocates: one sub-block scratch per worker
// (the lane generator's sixteen states and five rows of sub values: the
// pairs' coordinates x1 and x2, their radii, and each radius's fraction
// and exponent, 20 KiB) plus a flat allowance for the per-worker batch
// states. EP's footprint is class-independent (the class only scales the
// pair count), so the estimate depends on threads alone — but an unknown
// class still errors, for parity with the other estimators.
func Footprint(class byte, threads int) (uint64, error) {
	if _, ok := classM[class]; !ok {
		return 0, fmt.Errorf("ep: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	perWorker := uint64(16+5*sub)*8 + (1 << 12) // scratch + batch state
	return uint64(threads) * perWorker, nil
}
