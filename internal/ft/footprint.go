package ft

import "fmt"

// Footprint estimates the working-set bytes an FT run of the given
// class and thread count allocates: two complex128 grids (the inverse
// transform runs in place) plus the real twiddle array over nx·ny·nz
// points, and the per-thread FFT plane scratch. FT is the benchmark
// whose class-A/B runs the paper could not fit on its smaller machines
// (§5 "FT memory limits") — this estimator is that anomaly
// generalized, feeding the harness admission guard.
func Footprint(class byte, threads int) (uint64, error) {
	p, ok := classes[class]
	if !ok {
		return 0, fmt.Errorf("ft: unknown class %q", string(class))
	}
	if threads < 1 {
		threads = 1
	}
	n := uint64(p.nx) * uint64(p.ny) * uint64(p.nz)
	grids := n * (2*16 + 8)                                          // u0,u1 complex128 + twiddle float64
	scratch := uint64(threads) * 2 * uint64(p.nx) * uint64(p.ny) * 8 // per-worker plane buffer
	return grids + scratch, nil
}
