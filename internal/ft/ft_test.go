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
	b.fft3d(-1, b.u0, b.u1, tm)

	ntotal := float64(b.p.nx) * float64(b.p.ny) * float64(b.p.nz)
	for i := 0; i < len(orig); i += 997 { // sample
		want := orig[i] * complex(ntotal, 0)
		if cmplx.Abs(b.u1[i]-want) > 1e-6*cmplx.Abs(want) {
			t.Fatalf("roundtrip mismatch at %d: %v vs %v", i, b.u1[i], want)
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

// TestExpTableMatchesExp: every table entry is math.Exp of the argument
// compute_indexmap would have passed it, bit for bit, and the table
// reaches the largest m = (nx²+ny²+nz²)/4 the index map reads.
func TestExpTableMatchesExp(t *testing.T) {
	ap := -4.0 * alpha * math.Pi * math.Pi
	for _, class := range []byte{'S', 'W', 'A'} {
		if testing.Short() && class == 'A' {
			continue
		}
		b, err := New(class, 1, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if want := (b.p.nx*b.p.nx+b.p.ny*b.p.ny+b.p.nz*b.p.nz)/4 + 1; len(b.ex) != want {
			t.Fatalf("class %c: table has %d entries, want %d", class, len(b.ex), want)
		}
		for m, got := range b.ex {
			if want := math.Exp(ap * float64(m)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("class %c: ex[%d] = %x, math.Exp gives %x", class, m, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestIndexMapMatchesDirect holds the table-driven index map to ft.f's
// formula evaluated per point, modulus and all, bit for bit.
func TestIndexMapMatchesDirect(t *testing.T) {
	ap := -4.0 * alpha * math.Pi * math.Pi
	for _, class := range []byte{'S', 'W'} {
		b, _ := New(class, 3, kernel.Env{})
		tm := team.New(3, team.WithSchedule(team.Dynamic))
		b.computeIndexMap(tm)
		tm.Close()
		nx, ny, nz := b.p.nx, b.p.ny, b.p.nz
		for k := 0; k < nz; k++ {
			kk := ((k + nz/2) % nz) - nz/2
			for j := 0; j < ny; j++ {
				jj := ((j + ny/2) % ny) - ny/2
				for i := 0; i < nx; i++ {
					ii := ((i + nx/2) % nx) - nx/2
					want := math.Exp(ap * float64(ii*ii+jj*jj+kk*kk))
					if got := b.twiddle[b.c.at(i, j, k)]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("class %c twiddle(%d,%d,%d) = %x, direct %x", class, i, j, k, math.Float64bits(got), math.Float64bits(want))
					}
				}
			}
		}
	}
}

// TestInPlaceInverseMatchesOutOfPlace: an FT.S step whose inverse
// transform runs in place on u1 leaves the bits the out-of-place
// transform into a third grid (what Iter did before) leaves there.
func TestInPlaceInverseMatchesOutOfPlace(t *testing.T) {
	for _, threads := range []int{1, 3} {
		b, _ := New('S', threads, kernel.Env{})
		tm := team.New(threads)
		b.computeIndexMap(tm)
		b.computeInitialConditions(tm)
		b.fft3d(1, b.u1, b.u0, tm)
		b.evolve(tm)
		out := make([]complex128, len(b.u1))
		b.fft3d(-1, b.u1, out, tm)
		b.fft3d(-1, b.u1, b.u1, tm)
		tm.Close()
		for i := range out {
			if out[i] != b.u1[i] {
				t.Fatalf("threads=%d: in-place inverse differs at %d: %v vs %v", threads, i, b.u1[i], out[i])
			}
		}
	}
}

// BenchmarkIndexMap is FT.W's compute_indexmap on two workers: it runs
// once untimed and once inside the timed section of every run.
func BenchmarkIndexMap(b *testing.B) {
	ft, err := New('W', 2, kernel.Env{})
	if err != nil {
		b.Fatal(err)
	}
	tm := team.New(2)
	defer tm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft.computeIndexMap(tm)
	}
}
