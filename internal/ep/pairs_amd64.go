package ep

// The kernel of pairs_amd64.s.

//go:noescape
func pairsAVX512(gen *[2][8]uint64, a uint64, steps int, x1, x2, t, f, k *[sub]float64) int
