//go:build !amd64

package simd

// Without amd64 there are no AVX kernels: every wrapper runs the
// scalar body.
func avxSupported() bool { return false }
