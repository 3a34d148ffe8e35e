package randdp

import (
	"math"
	"testing"
	"testing/quick"
)

// The oracle: a literal transcription of the NPB2.3 Fortran randlc,
// vranlc and ipow46, which emulate the 46-bit integer product with
// 23-bit halves in double precision. The package computes the same
// recurrence on a uint64; everything below asserts the two agree bit
// for bit, state and returned value.
const (
	oR23 = 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5 * 0.5
	oT23 = 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0 * 2.0
	oR46 = oR23 * oR23
	oT46 = oT23 * oT23
)

func oracleRandlc(x *float64, a float64) float64 {
	// Break a into two parts such that a = 2^23 * a1 + a2.
	t1 := oR23 * a
	a1 := float64(int64(t1))
	a2 := a - oT23*a1

	// Break x into two parts such that x = 2^23 * x1 + x2, compute
	// z = a1 * x2 + a2 * x1 (mod 2^23), and then
	// a*x = 2^23 * z + a2 * x2 (mod 2^46).
	t1 = oR23 * *x
	x1 := float64(int64(t1))
	x2 := *x - oT23*x1
	t1 = a1*x2 + a2*x1
	t2 := float64(int64(oR23 * t1))
	z := t1 - oT23*t2
	t3 := oT23*z + a2*x2
	t4 := float64(int64(oR46 * t3))
	*x = t3 - oT46*t4
	return oR46 * *x
}

func oracleVranlc(n int, x *float64, a float64, y []float64) {
	t1 := oR23 * a
	a1 := float64(int64(t1))
	a2 := a - oT23*a1

	for i := 0; i < n; i++ {
		t1 = oR23 * *x
		x1 := float64(int64(t1))
		x2 := *x - oT23*x1
		t1 = a1*x2 + a2*x1
		t2 := float64(int64(oR23 * t1))
		z := t1 - oT23*t2
		t3 := oT23*z + a2*x2
		t4 := float64(int64(oR46 * t3))
		*x = t3 - oT46*t4
		y[i] = oR46 * *x
	}
}

func oracleIpow46(a float64, exponent int) float64 {
	result := 1.0
	if exponent == 0 {
		return result
	}
	q := a
	r := 1.0
	n := exponent
	for n > 1 {
		n2 := n / 2
		if n2*2 == n {
			oracleRandlc(&q, q) // q = q*q mod 2^46
			n = n2
		} else {
			oracleRandlc(&r, q) // r = r*q mod 2^46
			n = n - 1
		}
	}
	oracleRandlc(&r, q)
	return r
}

// suiteSeeds are the starting states the benchmarks use: the default
// seed (FT, IS, MG, CG), EP's, and CG's tran after the one draw cg.f
// makes before makea.
var suiteSeeds = func() []float64 {
	tran := DefaultSeed
	oracleRandlc(&tran, A)
	return []float64{DefaultSeed, 271828183, tran}
}()

// suiteJumps are the exponents n of every jump multiplier a^n the suite
// forms; 1 is the plain multiplier A.
var suiteJumps = []struct {
	name string
	n    int
}{
	{"A", 1},
	{"EP a^(2nk), FT.A a^(2nxny)", 1 << 17},
	{"FT.S a^(2nxny)", 2 * 64 * 64},
	{"FT.W a^(2nxny)", 2 * 128 * 128},
	{"MG.S a^nx", 32},
	{"MG.S a^(nxny)", 32 * 32},
	{"MG.W a^nx", 128},
	{"MG.W a^(nxny)", 128 * 128},
	{"MG.A a^nx", 256},
	{"MG.A a^(nxny)", 256 * 256},
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCoreMatchesOracle draws a million numbers from every suite seed
// under every suite multiplier, once through Gen and once through the
// Randlc/Vranlc wrappers, and compares state and value bits with the
// Fortran transcription at every step.
func TestCoreMatchesOracle(t *testing.T) {
	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 14
	}
	const block = 1 << 12
	got, viaWrapper, want := make([]float64, block), make([]float64, block), make([]float64, block)
	for _, j := range suiteJumps {
		a := oracleIpow46(A, j.n)
		if ia := Ipow46(A, j.n); !same(ia, a) {
			t.Fatalf("%s: Ipow46 = %v, oracle %v", j.name, ia, a)
		}
		for _, seed := range suiteSeeds {
			g := NewStream(seed, a)
			xo, xw, xr := seed, seed, seed
			for done := 0; done < draws; done += block {
				g.Fill(got)
				Vranlc(block, &xw, a, viaWrapper)
				oracleVranlc(block, &xo, a, want)
				for i := range want {
					if !same(got[i], want[i]) || !same(viaWrapper[i], want[i]) {
						t.Fatalf("%s seed %v draw %d: Fill %v, Vranlc %v, oracle %v",
							j.name, seed, done+i, got[i], viaWrapper[i], want[i])
					}
				}
				if !same(g.Seed(), xo) || !same(xw, xo) {
					t.Fatalf("%s seed %v after %d draws: state Gen %v, Vranlc %v, oracle %v",
						j.name, seed, done+block, g.Seed(), xw, xo)
				}
			}
			// Single steps: Next and Randlc against the oracle's randlc.
			xo = seed
			h := NewStream(seed, a)
			for i := 0; i < draws; i++ {
				w := oracleRandlc(&xo, a)
				if v := h.Next(); !same(v, w) || !same(h.Seed(), xo) {
					t.Fatalf("%s seed %v draw %d: Next %v state %v, oracle %v state %v",
						j.name, seed, i, v, h.Seed(), w, xo)
				}
				if v := Randlc(&xr, a); !same(v, w) || !same(xr, xo) {
					t.Fatalf("%s seed %v draw %d: Randlc %v state %v, oracle %v state %v",
						j.name, seed, i, v, xr, w, xo)
				}
			}
		}
	}
}

// TestSkipMatchesSingleSteps: Skip(n) lands on the state n oracle draws
// reach, for every suite jump length from every suite seed.
func TestSkipMatchesSingleSteps(t *testing.T) {
	for _, j := range suiteJumps {
		for _, seed := range suiteSeeds {
			g := NewStream(seed, A)
			g.Skip(j.n)
			x := seed
			for i := 0; i < j.n; i++ {
				oracleRandlc(&x, A)
			}
			if !same(g.Seed(), x) {
				t.Fatalf("%s seed %v: Skip(%d) state %v, %d oracle steps %v", j.name, seed, j.n, g.Seed(), j.n, x)
			}
		}
	}
	g := NewStream(DefaultSeed, A)
	g.Skip(0)
	g.Skip(-3)
	if g.Seed() != DefaultSeed {
		t.Fatalf("Skip(0)/Skip(-3) moved the state to %v", g.Seed())
	}
}

// FuzzStepMatchesOracle checks one step of the integer core against the
// Fortran arithmetic for any state and multiplier in the 46-bit domain.
func FuzzStepMatchesOracle(f *testing.F) {
	f.Add(uint64(DefaultSeed), uint64(A)) // the rest of the corpus is under testdata/fuzz
	f.Fuzz(func(t *testing.T, x, a uint64) {
		x, a = x&Mask, a&Mask
		if x == 0 || a == 0 {
			t.Skip("outside the generator's domain")
		}
		g := New(x, a)
		got := g.Next()
		xo := float64(x)
		want := oracleRandlc(&xo, float64(a))
		if !same(got, want) || !same(g.Seed(), xo) {
			t.Fatalf("x=%d a=%d: core value %v state %v, oracle value %v state %v", x, a, got, g.Seed(), want, xo)
		}
	})
}

func TestConstructorsRejectValuesOutsideDomain(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: accepted", name)
			}
		}()
		f()
	}
	mustPanic("zero seed", func() { New(0, uint64(A)) })
	mustPanic("seed 2^46", func() { New(1<<46, uint64(A)) })
	mustPanic("zero multiplier", func() { New(1, 0) })
	mustPanic("multiplier 2^46", func() { New(1, 1<<46) })
	mustPanic("fractional seed", func() { NewStream(423.26, 0) })
	mustPanic("fractional multiplier", func() { NewStream(1, 2.5) })
	mustPanic("negative seed", func() { NewStream(-1, 0) })
	mustPanic("NaN seed", func() { NewStream(math.NaN(), 0) })
	mustPanic("seed 2^46 as float", func() { NewStream(oT46, 0) })
	mustPanic("seed 2^63 as float", func() { NewStream(oT46*oT23/64, 0) })
	mustPanic("infinite seed", func() { NewStream(math.Inf(1), 0) })
	New(Mask, Mask)
	NewStream(oT46-1, oT46-1)
}

// The generator is fully deterministic; the first few values from the
// canonical seed/multiplier pair are fixed by the recurrence
// x_{k+1} = 5^13 x_k mod 2^46 and can be computed independently with
// exact integer arithmetic. knownSequence does that with math/big-free
// 128-bit-ish arithmetic using uint64 (5^13 * x fits in 87 bits, so split
// the multiply).
func refNext(x uint64) uint64 {
	const a = 1220703125 // 5^13 < 2^31
	const mod = uint64(1) << 46
	// a*x mod 2^46 with x < 2^46: split x into 23-bit halves.
	lo := x & ((1 << 23) - 1)
	hi := x >> 23
	// a*x = a*hi*2^23 + a*lo. a*hi can be up to 2^31*2^23=2^54: fine.
	return ((a*hi%(1<<23))<<23 + a*lo) % mod
}

func TestRandlcMatchesIntegerReference(t *testing.T) {
	x := DefaultSeed
	xi := uint64(DefaultSeed)
	for i := 0; i < 10000; i++ {
		got := Randlc(&x, A)
		xi = refNext(xi)
		want := float64(xi) / float64(uint64(1)<<46)
		if got != want {
			t.Fatalf("step %d: Randlc = %.17g, integer reference = %.17g", i, got, want)
		}
		if uint64(x) != xi {
			t.Fatalf("step %d: state %v != reference %d", i, x, xi)
		}
	}
}

func TestVranlcMatchesRandlc(t *testing.T) {
	x1 := DefaultSeed
	x2 := DefaultSeed
	const n = 4096
	y := make([]float64, n)
	Vranlc(n, &x1, A, y)
	for i := 0; i < n; i++ {
		want := Randlc(&x2, A)
		if y[i] != want {
			t.Fatalf("element %d: Vranlc = %v, Randlc = %v", i, y[i], want)
		}
	}
	if x1 != x2 {
		t.Fatalf("final states differ: %v vs %v", x1, x2)
	}
}

func TestValuesInUnitInterval(t *testing.T) {
	s := NewStream(DefaultSeed, 0)
	for i := 0; i < 100000; i++ {
		v := s.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %d out of (0,1): %v", i, v)
		}
	}
}

func TestIpow46MatchesRepeatedMultiplication(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 16, 100, 12345} {
		want := 1.0
		if n > 0 {
			x := 1.0
			for i := 0; i < n; i++ {
				Randlc(&x, A) // x = A^i+1 mod 2^46 since x started at 1
			}
			want = x
		}
		got := Ipow46(A, n)
		if got != want {
			t.Fatalf("Ipow46(A,%d) = %v, repeated mult = %v", n, got, want)
		}
		if o := oracleIpow46(A, n); !same(got, o) {
			t.Fatalf("Ipow46(A,%d) = %v, oracle ipow46 = %v", n, got, o)
		}
	}
}

func TestStreamSkip(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		a := NewStream(DefaultSeed, 0)
		b := NewStream(DefaultSeed, 0)
		a.Skip(n)
		for i := 0; i < n; i++ {
			b.Next()
		}
		if a.Seed() != b.Seed() {
			t.Fatalf("Skip(%d) state %v != %v from %d Next calls", n, a.Seed(), b.Seed(), n)
		}
	}
}

func TestSkipProperty(t *testing.T) {
	f := func(seed uint32, n uint16) bool {
		start := float64(seed%100000) + 1
		a := NewStream(start, 0)
		b := NewStream(start, 0)
		k := int(n % 2048)
		a.Skip(k)
		for i := 0; i < k; i++ {
			b.Next()
		}
		return a.Seed() == b.Seed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanRoughlyHalf(t *testing.T) {
	// A weak statistical check: the mean of 1e5 samples should be close
	// to 0.5 (the generator has period 2^44, uniform over (0,1)).
	s := NewStream(DefaultSeed, 0)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += s.Next()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

var sink float64

func BenchmarkRandlc(b *testing.B) {
	x := DefaultSeed
	for i := 0; i < b.N; i++ {
		sink += Randlc(&x, A)
	}
}

func BenchmarkNext(b *testing.B) {
	g := New(uint64(DefaultSeed), uint64(A))
	for i := 0; i < b.N; i++ {
		sink += g.Next()
	}
}

func BenchmarkVranlc(b *testing.B) {
	x := DefaultSeed
	y := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Vranlc(len(y), &x, A, y)
	}
}

func BenchmarkOracleVranlc(b *testing.B) {
	x := DefaultSeed
	y := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracleVranlc(len(y), &x, A, y)
	}
}

// oneLaneFill is the loop Fill replaced: one chain stepping by a.
func oneLaneFill(g *Gen, y []float64) {
	x, a := g.x, g.a
	for i := range y {
		x = x * a & Mask
		y[i] = R46 * float64(int64(x))
	}
	g.x = x
}

// TestFillMatchesOneLane: the four lanes visit the integers of the one
// chain, whatever the length leaves for the tail, and hand on the same
// state — also when Fills of different lengths follow each other.
func TestFillMatchesOneLane(t *testing.T) {
	lengths := []int{1000, 131072}
	for n := 0; n <= 12; n++ {
		lengths = append(lengths, n)
	}
	for _, a := range []uint64{uint64(A), pow46(uint64(A), 2*128*128)} {
		g, h := New(uint64(DefaultSeed), a), New(uint64(DefaultSeed), a)
		for _, n := range lengths {
			got, want := make([]float64, n), make([]float64, n)
			g.Fill(got)
			oneLaneFill(&h, want)
			for i := range want {
				if !same(got[i], want[i]) {
					t.Fatalf("a %d length %d draw %d: Fill %v, one lane %v", a, n, i, got[i], want[i])
				}
			}
			if g != h {
				t.Fatalf("a %d after length %d: state %d, one lane %d", a, n, g.x, h.x)
			}
		}
	}
}

// TestNext16ContinuesTheChain: the 16 states Next16 hands out, each
// stepped by the multiplier it returns, are the states of the one chain
// from that point in stream order, and the generator continues after
// the 16th.
func TestNext16ContinuesTheChain(t *testing.T) {
	for _, a := range []uint64{uint64(A), pow46(uint64(A), 2*128*128), 3} {
		g, h := New(uint64(DefaultSeed), a), New(uint64(DefaultSeed), a)
		var x [16]uint64
		a16 := g.Next16(&x)
		for step := 0; step < 100; step++ {
			for i := range x {
				h.Next()
				if x[i] != h.x {
					t.Fatalf("a %d step %d lane %d: %d, one chain %d", a, step, i, x[i], h.x)
				}
				x[i] = x[i] * a16 & Mask
			}
		}
		h = New(uint64(DefaultSeed), a)
		h.Skip(16)
		if g != h {
			t.Fatalf("a %d: after Next16 the state is %d, 16 steps on %d", a, g.x, h.x)
		}
	}
}

// BenchmarkFill is Fill on an L1-sized buffer (ns/op over 1024 numbers);
// BenchmarkOneLaneFill is the chain it replaced.
func BenchmarkFill(b *testing.B) {
	g := New(uint64(DefaultSeed), uint64(A))
	y := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		g.Fill(y)
	}
}

func BenchmarkOneLaneFill(b *testing.B) {
	g := New(uint64(DefaultSeed), uint64(A))
	y := make([]float64, 1024)
	b.SetBytes(1024 * 8)
	for i := 0; i < b.N; i++ {
		oneLaneFill(&g, y)
	}
}
