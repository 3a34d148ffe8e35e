package ft

import (
	"math"

	"npbgo/internal/grid"
)

// fftBlock is the number of pencils transformed together, the cache
// blocking factor of the Fortran original (fftblock = 16). All NPB grid
// extents are powers of two >= 32, so it always divides evenly, but
// partial blocks are handled anyway.
const fftBlock = 16

// roots holds the precomputed roots-of-unity table of fft_init: for each
// FFT stage j (sub-transform length ln = 2^(j-1)), the ln roots
// exp(i*pi*k/ln), stored consecutively as in the Fortran u array.
type roots struct {
	m int // log2(n)
	u []complex128
}

// fftInit builds the roots table for transforms of length n (power of
// two), as ft.f's fft_init.
func fftInit(n int) *roots {
	m := ilog2(n)
	r := &roots{m: m, u: make([]complex128, n)}
	ku := 0
	ln := 1
	for j := 1; j <= m; j++ {
		t := math.Pi / float64(ln)
		for i := 0; i < ln; i++ {
			ti := float64(i) * t
			r.u[ku+i] = complex(math.Cos(ti), math.Sin(ti))
		}
		ku += ln
		ln *= 2
	}
	return r
}

// ilog2 returns log2(n) for a positive power of two.
func ilog2(n int) int {
	m := 0
	for 1<<m < n {
		m++
	}
	return m
}

// workspace is the per-worker pencil scratch: two (block x n) complex
// buffers laid out pencil-index fastest, matching the Fortran
// x(fftblock, n) arrays.
type workspace struct {
	x, y []complex128
}

func newWorkspace(maxN int) *workspace {
	return &workspace{
		x: make([]complex128, fftBlock*maxN),
		y: make([]complex128, fftBlock*maxN),
	}
}

// fftz2 performs one Stockham radix-2 stage l of an n-point transform
// over ny pencils, reading x and writing y: ft.f's fftz2. is >= 1
// selects the forward sign; the inverse uses conjugated roots. The four
// pencil rows of a butterfly are addressed as arrays of fftBlock, so
// the loop over pencils checks no index, and the root is split into its
// parts once per i: the product below is the compiler's own complex
// multiply, term for term.
func fftz2(is, l, m, n, ny int, u []complex128, x, y []complex128) {
	n1 := n / 2
	lk := 1 << (l - 1)
	li := 1 << (m - l)
	lj := 2 * lk
	// The Fortran u table stores m in u(1) with roots from u(2), so its
	// u(li+1+i) is index li+i-1 of this header-less table.
	ku := li - 1
	for i := 0; i < li; i++ {
		i11 := i * lk
		i12 := i11 + n1
		i21 := i * lj
		i22 := i21 + lk
		ur, ui := real(u[ku+i]), imag(u[ku+i])
		if is < 1 {
			ui = -ui
		}
		for k := 0; k < lk; k++ {
			x1 := (*[fftBlock]complex128)(x[(i11+k)*fftBlock:])
			x2 := (*[fftBlock]complex128)(x[(i12+k)*fftBlock:])
			y1 := (*[fftBlock]complex128)(y[(i21+k)*fftBlock:])
			y2 := (*[fftBlock]complex128)(y[(i22+k)*fftBlock:])
			for j, x11 := range x1[:ny] {
				x21 := x2[j]
				y1[j] = x11 + x21
				dr, di := real(x11)-real(x21), imag(x11)-imag(x21)
				y2[j] = complex(ur*dr-ui*di, ur*di+ui*dr)
			}
		}
	}
}

// cfftz computes ny simultaneous n-point complex FFTs over the pencils
// in ws.x (is = 1 forward, is = -1 inverse, unnormalized), leaving the
// result in ws.x, as ft.f's cfftz.
func cfftz(is, n, ny int, r *roots, ws *workspace) {
	m := r.m
	for l := 1; l <= m; l += 2 {
		fftz2(is, l, m, n, ny, r.u, ws.x, ws.y)
		if l == m {
			// Odd number of stages: result currently in y; copy back.
			copy(ws.x[:n*fftBlock], ws.y[:n*fftBlock])
			return
		}
		fftz2(is, l+1, m, n, ny, r.u, ws.y, ws.x)
	}
}

// cube is the 3-D complex field layout, first index fastest.
type cube struct{ d1, d2, d3 int }

func (c cube) len() int { return c.d1 * c.d2 * c.d3 }
func (c cube) at(i, j, k int) int {
	return grid.Dim3{N1: c.d1, N2: c.d2, N3: c.d3}.At(i, j, k)
}

// cffts1Range transforms the planes [klo, khi) along the first
// (contiguous) dimension using the caller's workspace: for every (j,k)
// pencil batch, gather into the block scratch, transform, scatter into
// out. Each pencil is one contiguous row of the cube, so the transposes
// go pencil by pencil: the cube is read and written in order and the
// strided side is the L1-resident scratch. One worker's share of the pass.
func cffts1Range(is int, c cube, in, out []complex128, r *roots, ws *workspace, klo, khi int) {
	n := c.d1
	for k := klo; k < khi; k++ {
		for j0 := 0; j0 < c.d2; j0 += fftBlock {
			ny := min(fftBlock, c.d2-j0)
			for jj := 0; jj < ny; jj++ {
				for i, v := range in[c.at(0, j0+jj, k):][:n] {
					ws.x[i*fftBlock+jj] = v
				}
			}
			cfftz(is, n, ny, r, ws)
			for jj := 0; jj < ny; jj++ {
				row := out[c.at(0, j0+jj, k):][:n]
				for i := range row {
					row[i] = ws.x[i*fftBlock+jj]
				}
			}
		}
	}
}

// cffts2Range transforms the planes [klo, khi) along the second
// dimension, batching over i. One worker's share of the pass.
func cffts2Range(is int, c cube, in, out []complex128, r *roots, ws *workspace, klo, khi int) {
	n := c.d2
	for k := klo; k < khi; k++ {
		for i0 := 0; i0 < c.d1; i0 += fftBlock {
			ny := min(fftBlock, c.d1-i0)
			for j := 0; j < n; j++ {
				copy(ws.x[j*fftBlock:][:ny], in[c.at(i0, j, k):])
			}
			cfftz(is, n, ny, r, ws)
			for j := 0; j < n; j++ {
				copy(out[c.at(i0, j, k):][:ny], ws.x[j*fftBlock:])
			}
		}
	}
}

// cffts3Range transforms the rows [jlo, jhi) along the third dimension,
// batching over i. One worker's share of the pass.
func cffts3Range(is int, c cube, in, out []complex128, r *roots, ws *workspace, jlo, jhi int) {
	n := c.d3
	for j := jlo; j < jhi; j++ {
		for i0 := 0; i0 < c.d1; i0 += fftBlock {
			ny := min(fftBlock, c.d1-i0)
			for k := 0; k < n; k++ {
				copy(ws.x[k*fftBlock:][:ny], in[c.at(i0, j, k):])
			}
			cfftz(is, n, ny, r, ws)
			for k := 0; k < n; k++ {
				copy(out[c.at(i0, j, k):][:ny], ws.x[k*fftBlock:])
			}
		}
	}
}
