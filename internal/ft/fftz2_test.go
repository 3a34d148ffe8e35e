package ft

import (
	"math"
	"math/cmplx"
	"testing"

	"npbgo/internal/randdp"
	"npbgo/internal/rowcheck"
)

// oracleFftz2 is the stage fftz2 replaced, kept as the reference for
// its bits: slice indexing and the complex multiply by a conjugated
// root.
func oracleFftz2(is, l, m, n, ny int, u []complex128, x, y []complex128) {
	n1 := n / 2
	lk := 1 << (l - 1)
	li := 1 << (m - l)
	lj := 2 * lk
	ku := li - 1
	for i := 0; i < li; i++ {
		i11 := i * lk
		i12 := i11 + n1
		i21 := i * lj
		i22 := i21 + lk
		u1 := u[ku+i]
		if is < 1 {
			u1 = cmplx.Conj(u1)
		}
		for k := 0; k < lk; k++ {
			xo1 := (i11 + k) * fftBlock
			xo2 := (i12 + k) * fftBlock
			yo1 := (i21 + k) * fftBlock
			yo2 := (i22 + k) * fftBlock
			for j := 0; j < ny; j++ {
				x11 := x[xo1+j]
				x21 := x[xo2+j]
				y[yo1+j] = x11 + x21
				y[yo2+j] = u1 * (x11 - x21)
			}
		}
	}
}

// randomPencils fills an n-point block scratch with generator draws.
func randomPencils(n int) []complex128 {
	re := make([]float64, 2*fftBlock*n)
	g := randdp.New(uint64(randdp.DefaultSeed), uint64(randdp.A))
	g.Fill(re)
	x := make([]complex128, fftBlock*n)
	for i := range x {
		x[i] = complex(re[2*i]-0.5, re[2*i+1]-0.5)
	}
	return x
}

// planes splits complex pencils into a plane of real and one of
// imaginary parts.
func planes(x []complex128) (re, im []float64) {
	re, im = make([]float64, len(x)), make([]float64, len(x))
	for i, v := range x {
		re[i], im[i] = real(v), imag(v)
	}
	return re, im
}

// TestFftz2MatchesOracle: every stage of a 128-point transform, both
// signs, a full block of pencils and a partial one, on each path
// (rowcheck.Modes), bit for bit; the pencils beyond ny must be left
// alone.
func TestFftz2MatchesOracle(t *testing.T) {
	const n = 128
	r := fftInit(n)
	x := randomPencils(n)
	xr, xi := planes(x)
	rowcheck.Modes(t, func(width int) {
		for _, is := range []int{1, -1} {
			for _, ny := range []int{fftBlock, 5} {
				for l := 1; l <= r.m; l++ {
					yr, yi := planes(randomPencils(n))
					want := randomPencils(n)
					fftz2(is, l, r.m, n, ny, r.u, xr, xi, yr, yi)
					oracleFftz2(is, l, r.m, n, ny, r.u, x, want)
					for i, w := range want {
						if math.Float64bits(yr[i]) != math.Float64bits(real(w)) || math.Float64bits(yi[i]) != math.Float64bits(imag(w)) {
							t.Fatalf("width %d is %d ny %d stage %d: element %d = %v, oracle %v", width, is, ny, l, i, complex(yr[i], yi[i]), w)
						}
					}
				}
			}
		}
	})
}

// TestRowKernelsMatchScalar holds butterflyRow to its scalar body, bit
// for bit, at every row length from 0 to 17, on random rows with zeros,
// infinities, NaNs and subnormals among them (rowcheck.Kernels).
func TestRowKernelsMatchScalar(t *testing.T) {
	rowcheck.Kernels(t, [][2]any{{butterflyRow, butterfly}})
}

// BenchmarkFftz2 is one 128-point inverse transform of a full block of
// pencils (seven stages): FT.W's first two dimensions.
// BenchmarkOracleFftz2 runs the same stages through the replaced body.
func BenchmarkFftz2(b *testing.B) {
	const n = 128
	r := fftInit(n)
	ws := newWorkspace(n)
	ws.xr, ws.xi = planes(randomPencils(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfftz(-1, n, fftBlock, r, ws)
	}
}

func BenchmarkOracleFftz2(b *testing.B) {
	const n = 128
	r := fftInit(n)
	x, y := randomPencils(n), make([]complex128, fftBlock*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 1; l <= r.m; l += 2 {
			oracleFftz2(-1, l, r.m, n, fftBlock, r.u, x, y)
			if l == r.m {
				copy(x, y)
				break
			}
			oracleFftz2(-1, l+1, r.m, n, fftBlock, r.u, y, x)
		}
	}
}
