package ft

import (
	"math"

	"npbgo/internal/grid"
)

//go:generate go run ../lanegen

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
// x(fftblock, n) arrays, each held as a plane of real and a plane of
// imaginary parts, so a butterfly's rows are float64 rows.
type workspace struct {
	xr, xi, yr, yi []float64
}

func newWorkspace(maxN int) *workspace {
	return &workspace{
		xr: make([]float64, fftBlock*maxN),
		xi: make([]float64, fftBlock*maxN),
		yr: make([]float64, fftBlock*maxN),
		yi: make([]float64, fftBlock*maxN),
	}
}

// fftz2 performs one Stockham radix-2 stage l of an n-point transform
// over ny pencils, reading the planes xr, xi and writing yr, yi: ft.f's
// fftz2. is >= 1 selects the forward sign; the inverse uses conjugated
// roots. The root is split into its parts once per i, and the pencils
// of the lk rows that share it are one run of lk·fftBlock points in
// every plane, so a full block is one butterflyRow call per i; a
// partial block runs row by row over its ny pencils.
func fftz2(is, l, m, n, ny int, u []complex128, xr, xi, yr, yi []float64) {
	n1 := n / 2
	lk := 1 << (l - 1)
	li := 1 << (m - l)
	lj := 2 * lk
	rows, count := 1, lk*fftBlock
	if ny < fftBlock {
		rows, count = lk, ny
	}
	// The Fortran u table stores m in u(1) with roots from u(2), so its
	// u(li+1+i) is index li+i-1 of this header-less table.
	for i, w := range u[li-1 : 2*li-1] {
		ur, ui := real(w), imag(w)
		if is < 1 {
			ui = -ui
		}
		for k := 0; k < rows; k++ {
			x1, x2 := (i*lk+k)*fftBlock, (i*lk+n1+k)*fftBlock
			y1, y2 := (i*lj+k)*fftBlock, (i*lj+lk+k)*fftBlock
			butterflyRow(yr[y1:y1+count], yi[y1:], yr[y2:], yi[y2:], xr[x1:], xi[x1:], xr[x2:], xi[x2:], ur, ui)
		}
	}
}

// butterfly is one pencil of a radix-2 butterfly: y1 = x1 + x2 and
// y2 = u·(x1 − x2), the product written out as the compiler writes a
// complex multiply (ur·dr − ui·di, ur·di + ui·dr), term for term.
//
//lanegen:rows
func butterfly(y1r, y1i, y2r, y2i, x1r, x1i, x2r, x2i *[1]float64, ur, ui float64) {
	y1r[0] = x1r[0] + x2r[0]
	y1i[0] = x1i[0] + x2i[0]
	dr := x1r[0] - x2r[0]
	di := x1i[0] - x2i[0]
	y2r[0] = ur*dr - ui*di
	y2i[0] = ur*di + ui*dr
}

// cfftz computes ny simultaneous n-point complex FFTs over the pencils
// in ws.xr, ws.xi (is = 1 forward, is = -1 inverse, unnormalized), as
// ft.f's cfftz, and returns the planes that hold the result: ws.xr and
// ws.xi after an even number of stages, ws.yr and ws.yi after an odd
// one, which ft.f copies back and this leaves where it is.
func cfftz(is, n, ny int, r *roots, ws *workspace) (re, im []float64) {
	m := r.m
	for l := 1; l <= m; l += 2 {
		fftz2(is, l, m, n, ny, r.u, ws.xr, ws.xi, ws.yr, ws.yi)
		if l == m {
			return ws.yr, ws.yi
		}
		fftz2(is, l+1, m, n, ny, r.u, ws.yr, ws.yi, ws.xr, ws.xi)
	}
	return ws.xr, ws.xi
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
				a := c.at(0, j0+jj, k)
				for i, v := range in[a : a+n] {
					ws.xr[i*fftBlock+jj], ws.xi[i*fftBlock+jj] = real(v), imag(v)
				}
			}
			re, im := cfftz(is, n, ny, r, ws)
			for jj := 0; jj < ny; jj++ {
				a := c.at(0, j0+jj, k)
				row := out[a : a+n]
				for i := range row {
					row[i] = complex(re[i*fftBlock+jj], im[i*fftBlock+jj])
				}
			}
		}
	}
}

// cffts2Range transforms the planes [klo, khi) along the second
// dimension, batching over i. One worker's share of the pass.
func cffts2Range(is int, c cube, in, out []complex128, r *roots, ws *workspace, klo, khi int) {
	for k := klo; k < khi; k++ {
		cfftsStrided(is, c, in, out, c.at(0, 0, k), c.d1, c.d2, r, ws)
	}
}

// cffts3Range transforms the rows [jlo, jhi) along the third dimension,
// batching over i. One worker's share of the pass.
func cffts3Range(is int, c cube, in, out []complex128, r *roots, ws *workspace, jlo, jhi int) {
	for j := jlo; j < jhi; j++ {
		cfftsStrided(is, c, in, out, c.at(0, j, 0), c.d1*c.d2, c.d3, r, ws)
	}
}

// cfftsStrided transforms the d1 pencils of n points whose point p
// starts at in[base+p*stride], fftBlock pencils at a time: each block's
// rows are split into the workspace planes, transformed, and joined
// from the planes that hold the result into out at the same places.
func cfftsStrided(is int, c cube, in, out []complex128, base, stride, n int, r *roots, ws *workspace) {
	for i0 := 0; i0 < c.d1; i0 += fftBlock {
		ny := min(fftBlock, c.d1-i0)
		for p := 0; p < n; p++ {
			a, o := base+i0+p*stride, p*fftBlock
			re, im := ws.xr[o:o+ny], ws.xi[o:o+ny]
			for e, v := range in[a : a+ny] {
				re[e], im[e] = real(v), imag(v)
			}
		}
		yr, yi := cfftz(is, n, ny, r, ws)
		for p := 0; p < n; p++ {
			a, o := base+i0+p*stride, p*fftBlock
			re, im := yr[o:o+ny], yi[o:o+ny]
			dst := out[a : a+ny]
			for e := range dst {
				dst[e] = complex(re[e], im[e])
			}
		}
	}
}
