package ft

import (
	"math"
	"math/cmplx"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

func TestFFTRoundTrip(t *testing.T) {
	// inverse(forward(x)) == ntotal * x for the unnormalized pair.
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	b.computeInitialConditions(tm)
	orig := make([]complex128, len(b.u1))
	copy(orig, b.u1)

	b.fft3d(1, b.u1, b.u0, tm)
	b.fft3d(-1, b.u0, b.u2, tm)

	ntotal := float64(b.p.nx) * float64(b.p.ny) * float64(b.p.nz)
	for i := 0; i < len(orig); i += 997 { // sample
		want := orig[i] * complex(ntotal, 0)
		if cmplx.Abs(b.u2[i]-want) > 1e-6*cmplx.Abs(want) {
			t.Fatalf("roundtrip mismatch at %d: %v vs %v", i, b.u2[i], want)
		}
	}
}

func TestForwardDeltaFunctionIsFlat(t *testing.T) {
	// The transform of a delta at the origin is constant 1 across the
	// spectrum — a classic analytic FFT check.
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	for i := range b.u1 {
		b.u1[i] = 0
	}
	b.u1[0] = 1
	b.fft3d(1, b.u1, b.u0, tm)
	for i := 0; i < len(b.u0); i += 1013 {
		if cmplx.Abs(b.u0[i]-1) > 1e-10 {
			t.Fatalf("spectrum of delta not flat at %d: %v", i, b.u0[i])
		}
	}
}

func TestParseval(t *testing.T) {
	// sum|x|^2 * ntotal == sum|X|^2 for the unnormalized forward
	// transform.
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.computeInitialConditions(tm)
	var inE float64
	for _, v := range b.u1 {
		inE += real(v)*real(v) + imag(v)*imag(v)
	}
	b.fft3d(1, b.u1, b.u0, tm)
	var outE float64
	for _, v := range b.u0 {
		outE += real(v)*real(v) + imag(v)*imag(v)
	}
	ntotal := float64(b.p.nx) * float64(b.p.ny) * float64(b.p.nz)
	if math.Abs(outE-inE*ntotal) > 1e-8*outE {
		t.Fatalf("Parseval violated: %v vs %v", outE, inE*ntotal)
	}
}

func TestTwiddleRange(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.computeIndexMap(tm)
	if b.twiddle[0] != 1 {
		t.Fatalf("zero frequency twiddle = %v, want 1", b.twiddle[0])
	}
	for i, w := range b.twiddle {
		if w <= 0 || w > 1 {
			t.Fatalf("twiddle[%d]=%v outside (0,1]", i, w)
		}
	}
}

func TestClassSVerifies(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := b.Run()
	if !res.Verify.Passed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
}

func TestParallelBitwiseMatchesSerial(t *testing.T) {
	s, _ := New('S', 1, kernel.Env{})
	sres := s.RunResult()
	for _, n := range []int{2, 4} {
		p, _ := New('S', n, kernel.Env{})
		pres := p.RunResult()
		for i := range sres.Sums {
			if sres.Sums[i] != pres.Sums[i] {
				t.Fatalf("threads=%d checksum %d differs: %v vs %v", n, i, sres.Sums[i], pres.Sums[i])
			}
		}
	}
}

func TestFFTInitTable(t *testing.T) {
	r := fftInit(8)
	if r.m != 3 {
		t.Fatalf("m = %d, want 3", r.m)
	}
	// Stage 1 root is exp(0) = 1.
	if r.u[0] != 1 {
		t.Fatalf("first root = %v", r.u[0])
	}
	// Stage 3 roots are exp(i*pi*k/4), k=0..3, at offset 3.
	want := cmplx.Exp(complex(0, math.Pi/4))
	if cmplx.Abs(r.u[4]-want) > 1e-15 {
		t.Fatalf("root = %v, want %v", r.u[4], want)
	}
}

func TestIlog2(t *testing.T) {
	for _, c := range []struct{ n, m int }{{1, 0}, {2, 1}, {32, 5}, {256, 8}} {
		if got := ilog2(c.n); got != c.m {
			t.Fatalf("ilog2(%d) = %d, want %d", c.n, got, c.m)
		}
	}
}

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('X', 1, kernel.Env{}); err == nil {
		t.Fatal("class X accepted")
	}
	if _, err := New('S', 0, kernel.Env{}); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestEvolveAppliesTwiddle(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.computeIndexMap(tm)
	for i := range b.u0 {
		b.u0[i] = complex(1, 1)
	}
	b.evolve(tm)
	for i := 0; i < len(b.u0); i += 2048 {
		want := complex(b.twiddle[i], b.twiddle[i])
		if b.u0[i] != want || b.u1[i] != want {
			t.Fatalf("evolve at %d: u0=%v u1=%v want %v", i, b.u0[i], b.u1[i], want)
		}
	}
	// A second evolve squares the factor.
	b.evolve(tm)
	i := 4096
	want := complex(b.twiddle[i]*b.twiddle[i], b.twiddle[i]*b.twiddle[i])
	if cmplx.Abs(b.u0[i]-want) > 1e-15 {
		t.Fatalf("second evolve at %d: %v want %v", i, b.u0[i], want)
	}
}

func TestIndexMapSymmetry(t *testing.T) {
	// twiddle depends only on squared signed frequencies, so index i and
	// nx-i (i > 0) must map to the same factor.
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.computeIndexMap(tm)
	nx := b.p.nx
	for i := 1; i < nx/2; i += 7 {
		a := b.twiddle[b.c.at(i, 3, 5)]
		c := b.twiddle[b.c.at(nx-i, 3, 5)]
		if a != c {
			t.Fatalf("twiddle asymmetric at i=%d: %v vs %v", i, a, c)
		}
	}
}
