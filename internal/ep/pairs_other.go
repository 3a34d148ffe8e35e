//go:build !amd64

package ep

// Without amd64 simd.Width is 1 and pairs runs pairsGo; this stub only
// keeps it compiling.
func pairsAVX512(gen *[2][8]uint64, a uint64, steps int, x1, x2, t, f, k *[sub]float64) int {
	panic("ep: pairsAVX512 exists only on amd64")
}
