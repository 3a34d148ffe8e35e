// Package simd holds the one CPU feature switch of the repository: the
// kernels internal/lanegen generates into bt, sp, lu, nscore, ep, ft,
// mg and cg read Width to choose between their assembly and their
// portable scalar body, and MG's resid and psinv read it to run their
// carried scalar forms, not their row kernels, at 1.
package simd

// Width is the vector level of the generated kernels, in doubles a
// register: 8 runs the AVX-512 kernels (and the AVX ones on a row's
// last four points), 4 the AVX kernels, 1 the portable scalar bodies.
// It is set once, at initialization, to the widest level the CPU and
// the OS support. Being one ordered value, it cannot name AVX-512
// without AVX. Tests lower it to run a narrower level: 1 is what an
// amd64 CPU without AVX and every other architecture run.
var Width = width()
