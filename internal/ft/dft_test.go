package ft

import (
	"math"
	"math/cmplx"
	"testing"

	"npbgo/internal/team"
)

// naiveDFT3 computes the 3-D DFT by direct summation with sign s —
// O(N^2), used only as an oracle on tiny grids.
func naiveDFT3(c cube, in []complex128, s float64) []complex128 {
	out := make([]complex128, len(in))
	for ko := 0; ko < c.d3; ko++ {
		for jo := 0; jo < c.d2; jo++ {
			for io := 0; io < c.d1; io++ {
				var sum complex128
				for ki := 0; ki < c.d3; ki++ {
					for ji := 0; ji < c.d2; ji++ {
						for ii := 0; ii < c.d1; ii++ {
							phase := 2 * math.Pi * s * (float64(io*ii)/float64(c.d1) +
								float64(jo*ji)/float64(c.d2) +
								float64(ko*ki)/float64(c.d3))
							sum += in[c.at(ii, ji, ki)] * cmplx.Exp(complex(0, phase))
						}
					}
				}
				out[c.at(io, jo, ko)] = sum
			}
		}
	}
	return out
}

// pencilPass runs one cffts*Range over [0, n) as the benchmark does: one
// region, each worker looping over its share with its own workspace.
func pencilPass(tm *team.Team, n, maxN int, rng func(ws *workspace, lo, hi int)) {
	tm.Run(func(id int) {
		ws := newWorkspace(maxN)
		for it := tm.Loop(id, 0, n); it.Next(); {
			rng(ws, it.Lo, it.Hi)
		}
	})
}

// fft3 is the benchmark's three-pass transform of a in place (the pass
// order of fft3d), built from the pencil bodies it times.
func fft3(tm *team.Team, dir int, c cube, a []complex128) {
	r1, r2, r3 := fftInit(c.d1), fftInit(c.d2), fftInit(c.d3)
	p1 := func() {
		pencilPass(tm, c.d3, c.d1, func(ws *workspace, lo, hi int) { cffts1Range(dir, c, a, a, r1, ws, lo, hi) })
	}
	p2 := func() {
		pencilPass(tm, c.d3, c.d2, func(ws *workspace, lo, hi int) { cffts2Range(dir, c, a, a, r2, ws, lo, hi) })
	}
	p3 := func() {
		pencilPass(tm, c.d2, c.d3, func(ws *workspace, lo, hi int) { cffts3Range(dir, c, a, a, r3, ws, lo, hi) })
	}
	if dir == 1 {
		p1()
		p2()
		p3()
	} else {
		p3()
		p2()
		p1()
	}
}

// checkAgainstNaive compares the three-pass transform in direction dir
// with direct summation on two grids off the class table, the first
// non-cubic and with fewer planes than the largest team has workers.
func checkAgainstNaive(t *testing.T, dir int) {
	for _, c := range []cube{{8, 4, 2}, {4, 4, 4}} {
		in := make([]complex128, c.len())
		for i := range in {
			in[i] = complex(math.Sin(float64(i))*0.7+float64(i%7)-3, math.Cos(float64(2*i))*0.3+float64(i%3))
		}
		want := naiveDFT3(c, in, float64(dir))
		for _, threads := range []int{1, 2, 3} {
			tm := team.New(threads)
			got := append([]complex128(nil), in...)
			fft3(tm, dir, c, got)
			tm.Close()
			for i := range want {
				if cmplx.Abs(got[i]-want[i]) > 1e-10*(1+cmplx.Abs(want[i])) {
					t.Fatalf("cube %v threads %d element %d: %v, want %v", c, threads, i, got[i], want[i])
				}
			}
		}
	}
}

// TestForwardMatchesNaiveDFT pins the transform's sign convention and
// correctness against direct summation: the NPB forward transform
// (is=1) uses exp(+i theta) roots, i.e. the +1 sign convention.
func TestForwardMatchesNaiveDFT(t *testing.T) { checkAgainstNaive(t, +1) }

func TestInverseMatchesNaiveDFT(t *testing.T) { checkAgainstNaive(t, -1) }
