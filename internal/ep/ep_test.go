package ep

import (
	"math"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
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

func TestUnknownClassRejected(t *testing.T) {
	if _, err := New('Z', 1, kernel.Env{}); err == nil {
		t.Fatal("class Z accepted")
	}
	if _, err := New('S', 0, kernel.Env{}); err == nil {
		t.Fatal("zero threads accepted")
	}
}

func TestPairsPerClass(t *testing.T) {
	b, _ := New('A', 1, kernel.Env{})
	if b.Pairs() != float64(1<<28) {
		t.Fatalf("class A pairs = %v, want 2^28", b.Pairs())
	}
}

func TestBatchSeedJumpMatchesDirectStream(t *testing.T) {
	// Batch kk must see the raw stream advanced past kk full batches
	// (2*nk draws each): draw the stream directly through three batches
	// and compare with what runBatch generated into its scratch.
	s := float64(seed)
	direct := make([]float64, 2*nk)
	scratch := make([]float64, 2*nk)
	for kk := 0; kk < 3; kk++ {
		randdp.Vranlc(2*nk, &s, amult, direct)
		var st batchState
		runBatch(kk, &st, scratch)
		for i := range scratch {
			if scratch[i] != direct[i] {
				t.Fatalf("batch %d element %d: jumped stream %v != direct stream %v", kk, i, scratch[i], direct[i])
			}
		}
	}
}

// BenchmarkRunBatch times one batch of 2^mk pairs: the jump, the Fill
// and the acceptance loop that are all of EP's timed section.
func BenchmarkRunBatch(b *testing.B) {
	x := make([]float64, 2*nk)
	var st batchState
	for i := 0; i < b.N; i++ {
		runBatch(i&255, &st, x)
	}
}
