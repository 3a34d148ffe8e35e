// Package simd holds the one CPU feature switch of the repository: the
// kernels internal/lanegen generates into bt, sp, lu and nscore read
// AVX to choose between their assembly and their portable scalar body.
package simd

// AVX selects the AVX kernels. It is set once, at initialization, from
// what the CPU and the OS support; tests clear it to run the portable
// path, which is what an amd64 CPU without AVX and every other
// architecture run.
var AVX = avxSupported()
