package ep

import (
	"fmt"
	"math"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/rowcheck"
	"npbgo/internal/team"
)

func TestClassSVerifies(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := b.RunResult()
	if !res.Verify.Passed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	if res.Gc <= 0 || res.Gc > b.Pairs() {
		t.Fatalf("accepted pair count %v outside (0, %v]", res.Gc, b.Pairs())
	}
}

func TestAcceptanceRateNearPiOver4(t *testing.T) {
	// The polar method accepts points inside the unit disc; the
	// acceptance rate must be close to pi/4.
	b, _ := New('S', 1, kernel.Env{})
	res := b.RunResult()
	rate := res.Gc / b.Pairs()
	if math.Abs(rate-math.Pi/4) > 0.001 {
		t.Fatalf("acceptance rate %v far from pi/4", rate)
	}
}

func TestAnnulusCountsDecrease(t *testing.T) {
	// Gaussian mass decays with radius: the first annulus must dominate
	// and counts must be (weakly) decreasing.
	b, _ := New('S', 1, kernel.Env{})
	res := b.RunResult()
	for l := 1; l < nq; l++ {
		if res.Q[l] > res.Q[l-1] {
			t.Fatalf("annulus counts not decreasing: q[%d]=%v > q[%d]=%v", l, res.Q[l], l-1, res.Q[l-1])
		}
	}
	// For max(|X|,|Y|) of two standard normals, P(max < 1) = 0.683^2,
	// about 47% of accepted pairs.
	if res.Q[0] < 0.4*res.Gc {
		t.Fatalf("first annulus holds only %v of %v", res.Q[0], res.Gc)
	}
}

func TestParallelMatchesSerialExactly(t *testing.T) {
	serial, _ := New('S', 1, kernel.Env{})
	sres := serial.RunResult()
	for _, n := range []int{2, 4} {
		par, _ := New('S', n, kernel.Env{})
		pres := par.RunResult()
		// Worker partials are combined in deterministic order, so a
		// parallel run is reproducible, but the association differs
		// from serial; allow last-bit drift only.
		if math.Abs(sres.Sx-pres.Sx) > 1e-10*math.Abs(sres.Sx) ||
			math.Abs(sres.Sy-pres.Sy) > 1e-10*math.Abs(sres.Sy) {
			t.Fatalf("threads=%d sums differ: (%v,%v) vs (%v,%v)", n, sres.Sx, sres.Sy, pres.Sx, pres.Sy)
		}
		if sres.Gc != pres.Gc {
			t.Fatalf("threads=%d counts differ: %v vs %v", n, sres.Gc, pres.Gc)
		}
		for l := range sres.Q {
			if sres.Q[l] != pres.Q[l] {
				t.Fatalf("threads=%d annulus %d differs: %v vs %v", n, l, sres.Q[l], pres.Q[l])
			}
		}
		if !pres.Verify.Passed() {
			t.Fatalf("threads=%d failed verification:\n%s", n, pres.Verify)
		}
	}
}

func TestPairsPerClass(t *testing.T) {
	b, _ := New('A', 1, kernel.Env{})
	if b.Pairs() != float64(1<<28) {
		t.Fatalf("class A pairs = %v, want 2^28", b.Pairs())
	}
}

// oracleBatch is the batch loop runBatch replaced, kept as the reference
// for its bits: one Fill of the whole batch, then generation, rejection
// and tallies pair by pair, with math.Log and math.Max.
func oracleBatch(kk int, st *batchState, x []float64) {
	g := randdp.New(seed, amult)
	g.Skip(2 * nk * kk)
	x = x[:2*nk]
	g.Fill(x)
	for i := 0; i < len(x)-1; i += 2 {
		x1 := 2.0*x[i] - 1.0
		x2 := 2.0*x[i+1] - 1.0
		t := x1*x1 + x2*x2
		if t <= 1.0 {
			t3 := math.Sqrt(-2.0 * math.Log(t) / t)
			g1 := x1 * t3
			g2 := x2 * t3
			l := int(math.Max(math.Abs(g1), math.Abs(g2)))
			st.q[l]++
			st.sx += g1
			st.sy += g2
		}
	}
}

// TestRunBatchMatchesOracle compares the tallies of runBatch and the
// one-loop batch as whole structs, over batches from both ends of class
// S's range and the larger classes' last ones, each accumulated on top
// of the last as a worker's block is.
func TestRunBatchMatchesOracle(t *testing.T) {
	var batches []int
	for i := 0; i < 22; i++ {
		batches = append(batches, i, 255-i)
	}
	for _, m := range classM {
		batches = append(batches, 1<<(m-mk)-1)
	}
	x := make([]float64, 2*nk)
	var scr scratch
	var got, want batchState
	for _, kk := range batches {
		runBatch(kk, &got, &scr)
		oracleBatch(kk, &want, x)
		if got != want {
			t.Fatalf("after batch %d: %+v, oracle %+v", kk, got, want)
		}
	}
}

// TestResultMatchesOracleBlocks: sx, sy and q of whole runs equal the
// one-loop batches accumulated per static block and added up in block
// order — the parent's result — for team sizes that divide the batch
// count and ones that do not, under the static and the dynamic schedule.
func TestResultMatchesOracleBlocks(t *testing.T) {
	classes := []byte{'S', 'W'}
	if testing.Short() {
		classes = classes[:1]
	}
	x := make([]float64, 2*nk)
	for _, class := range classes {
		for _, threads := range []int{1, 2, 3, 7} {
			nn := 1 << (classM[class] - mk)
			var want batchState
			for id := 0; id < threads; id++ {
				var st batchState
				lo, hi := team.Block(0, nn, threads, id)
				for kk := lo; kk < hi; kk++ {
					oracleBatch(kk, &st, x)
				}
				want.sx += st.sx
				want.sy += st.sy
				for l := range st.q {
					want.q[l] += st.q[l]
				}
			}
			for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
				b, err := New(class, threads, kernel.Env{Schedule: sched})
				if err != nil {
					t.Fatal(err)
				}
				res := b.RunResult()
				if got := (batchState{res.Sx, res.Sy, res.Q}); got != want {
					t.Fatalf("%c threads %d %v: %+v, oracle %+v", class, threads, sched, got, want)
				}
			}
		}
	}
}

// TestLogMatchesMathLog holds the local logarithm (reduce, then
// gaussRow's float part) to math.Log bit for bit, through the pair
// scale gaussRow forms with it, sqrt(-2 ln t / t), on more than a
// million radii as runBatch forms them, and on the same values scaled
// towards the smallest t the generator can produce (2^-90, both
// coordinates one state step from zero) — the range in which the local
// copy is valid — on each path (rowcheck.Modes). Below it, at
// subnormal or non-positive input, the two part ways by design.
func TestLogMatchesMathLog(t *testing.T) {
	if halfSqrt2 := math.Float64bits(math.Sqrt2 / 2); halfSqrt2 != 0x3FE6A09E667F3BCD {
		t.Fatalf("bits of √2/2 are %#x", halfSqrt2)
	}
	var v []float64
	g := randdp.New(seed, amult)
	x := make([]float64, 1<<12)
	for len(v) < 3<<20 {
		g.Fill(x)
		for i := 0; i < len(x); i += 2 {
			x1, x2 := 2*x[i]-1, 2*x[i+1]-1
			tt := x1*x1 + x2*x2
			v = append(v, tt, tt*1e-20, tt*0x1p-90)
		}
	}
	v = append(v, 0x1p-90, 1, math.Sqrt2/2, math.Nextafter(math.Sqrt2/2, 0), 0.5, math.Nextafter(1, 0), 2, 0x1p-1022)
	got, f, k := make([]float64, len(v)), make([]float64, len(v)), make([]float64, len(v))
	rowcheck.Modes(t, func(width int) {
		copy(got, v)
		for i, tt := range v {
			f[i], k[i] = reduce(tt)
		}
		gaussRow(got, f, k)
		for i, tt := range v {
			if want := math.Sqrt(-2 * math.Log(tt) / tt); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("width %d: t = %v: sqrt(-2 ln t / t) = %v, with math.Log %v", width, tt, got[i], want)
			}
		}
	})
}

// TestRowKernelsMatchScalar holds gaussRow to its scalar body, bit for
// bit, at every row length from 0 to 17, on random rows with zeros,
// infinities, NaNs and subnormals among them (rowcheck.Kernels).
func TestRowKernelsMatchScalar(t *testing.T) {
	rowcheck.Kernels(t, [][2]any{{gaussRow, gauss}})
}

// TestPortableLanesReproduceGolden runs EP.S on the portable path
// (simd.Width 1) and the AVX one (4) at one and two threads and
// compares the verification printout and the annulus counts, as the
// root package prints them, with the ones recorded in
// testdata/bitidentity.golden (rowcheck.Golden).
func TestPortableLanesReproduceGolden(t *testing.T) {
	rowcheck.Golden(t, "EP", func(threads int) string {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		res := b.RunResult()
		out := res.Verify.String()
		for l, q := range res.Q {
			out += fmt.Sprintf("  q[%d] %.0f\n", l, q)
		}
		return out
	})
}

// TestBatchSeedJumpMatchesDirectStream: batch kk must see the raw stream
// advanced past kk full batches (2*nk draws each), and within a batch
// the sub-blocks must continue one generator. The direct stream drawn
// through three batches and put through the one-loop arithmetic must
// therefore leave the tallies runBatch leaves; a batch started one draw
// off, or a sub-block that restarted its generator, would not.
func TestBatchSeedJumpMatchesDirectStream(t *testing.T) {
	s := float64(seed)
	direct := make([]float64, 2*nk)
	var scr scratch
	for kk := 0; kk < 3; kk++ {
		randdp.Vranlc(2*nk, &s, amult, direct)
		var got, want batchState
		for i := 0; i < len(direct); i += 2 {
			x1, x2 := 2*direct[i]-1, 2*direct[i+1]-1
			if tt := x1*x1 + x2*x2; tt <= 1 {
				t3 := math.Sqrt(-2 * math.Log(tt) / tt)
				want.q[int(math.Max(math.Abs(x1*t3), math.Abs(x2*t3)))]++
				want.sx += x1 * t3
				want.sy += x2 * t3
			}
		}
		runBatch(kk, &got, &scr)
		if got != want {
			t.Fatalf("batch %d: %+v, direct stream %+v", kk, got, want)
		}
	}
}

// BenchmarkRunBatch times one batch of 2^mk pairs: the jump, the Fills
// and the three loops that are all of EP's timed section.
func BenchmarkRunBatch(b *testing.B) {
	var scr scratch
	var st batchState
	for i := 0; i < b.N; i++ {
		runBatch(i&255, &st, &scr)
	}
}

// BenchmarkOracleBatch is the same batch through the one-loop form.
func BenchmarkOracleBatch(b *testing.B) {
	x := make([]float64, 2*nk)
	var st batchState
	for i := 0; i < b.N; i++ {
		oracleBatch(i&255, &st, x)
	}
}
