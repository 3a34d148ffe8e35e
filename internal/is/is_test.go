package is

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"testing"
	"testing/quick"

	"npbgo/internal/kernel"
	"npbgo/internal/team"
)

func TestClassSFullVerify(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := b.RunResult()
	if res.OutOfSeq != 0 {
		t.Fatalf("%d out-of-order pairs after sort", res.OutOfSeq)
	}
	if !res.Verify.Passed() {
		t.Fatalf("verification failed:\n%s", res.Verify)
	}
}

func TestParallelFullVerify(t *testing.T) {
	for _, n := range []int{2, 4} {
		b, err := New('S', n, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if res := b.RunResult(); res.OutOfSeq != 0 {
			t.Fatalf("threads=%d: %d out-of-order pairs", n, res.OutOfSeq)
		}
	}
}

func TestSortIsPermutation(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.createSeq(tm)
	before := make([]int32, len(b.keys))
	copy(before, b.keys)

	b.rank(tm, 1)
	// rank(1) perturbs two positions; capture the perturbed input.
	perturbed := make([]int32, len(b.keys))
	copy(perturbed, b.keys)

	b.fullVerify()

	// The output must be exactly the multiset of the perturbed input.
	wantHist := map[int32]int{}
	for _, k := range perturbed {
		wantHist[k]++
	}
	for _, k := range b.keys {
		wantHist[k]--
	}
	for k, c := range wantHist {
		if c != 0 {
			t.Fatalf("key %d count off by %d — not a permutation", k, c)
		}
	}
	_ = before
}

func TestKeysWithinRange(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.createSeq(tm)
	for i, k := range b.keys {
		if k < 0 || int(k) >= b.maxKey {
			t.Fatalf("key[%d]=%d outside [0,%d)", i, k, b.maxKey)
		}
	}
}

func TestKeyDistributionCentered(t *testing.T) {
	// Keys are sums of four uniforms scaled by maxKey/4: mean maxKey/2.
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.createSeq(tm)
	sum := 0.0
	for _, k := range b.keys {
		sum += float64(k)
	}
	mean := sum / float64(len(b.keys))
	mid := float64(b.maxKey) / 2
	if mean < 0.95*mid || mean > 1.05*mid {
		t.Fatalf("key mean %v far from %v", mean, mid)
	}
}

func TestRanksMatchStdlibSortProperty(t *testing.T) {
	// Property: our histogram ranking sorts any random key set exactly
	// like sort.Slice.
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		b := &Benchmark{
			Class:   'S',
			numKeys: len(raw),
			maxKey:  1 << 11,
			threads: 1,
		}
		b.keys = make([]int32, len(raw))
		b.buff2 = make([]int32, len(raw))
		b.dens = make([]int32, b.maxKey)
		b.local = [][]int32{make([]int32, b.maxKey)}
		want := make([]int32, len(raw))
		for i, r := range raw {
			b.keys[i] = int32(int(r) % b.maxKey)
			want[i] = b.keys[i]
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		tm := team.New(1)
		defer tm.Close()
		// Histogram + prefix without the per-iteration perturbation.
		loc := b.local[0]
		for i := range loc {
			loc[i] = 0
		}
		for i := range b.keys {
			loc[b.keys[i]]++
		}
		copy(b.dens, loc)
		for i := 0; i < b.maxKey-1; i++ {
			b.dens[i+1] += b.dens[i]
		}
		b.fullVerify()
		for i := range want {
			if b.keys[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestClassSizes(t *testing.T) {
	b, _ := New('A', 1, kernel.Env{})
	if b.NumKeys() != 1<<23 || b.MaxKey() != 1<<19 {
		t.Fatalf("class A sizes wrong: %d keys, %d max", b.NumKeys(), b.MaxKey())
	}
}

// TestRankShiftInvariant: each iteration writes iteration into position
// `iteration` and maxKey-iteration into position iteration+10, so the
// cumulative rank of a probe key must move deterministically between
// iterations — the invariant behind the C original's partial
// verification, checked here without its rank tables.
func TestRankShiftInvariant(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.createSeq(tm)

	rankOf := func(key int32) int32 { return b.dens[key] }

	b.rank(tm, 1)
	probe := int32(b.maxKey / 2)
	r1 := rankOf(probe)
	b.rank(tm, 2)
	r2 := rankOf(probe)
	// Between iteration 1 and 2 the two perturbed cells change from
	// (1, maxKey-1) to (2, maxKey-2): both below/above the mid probe as
	// before, so the probe's cumulative rank moves by at most 2.
	if d := r2 - r1; d < -2 || d > 2 {
		t.Fatalf("probe rank moved by %d between iterations", d)
	}
	// A probe below the small inserted keys must see its rank change by
	// exactly 0 when keys just move within the region above it.
	lo := rankOf(0)
	b.rank(tm, 3)
	if rankOf(0) != lo {
		t.Fatalf("rank of key 0 changed: %d -> %d", lo, rankOf(0))
	}
}

func TestAllKeysEqualSorts(t *testing.T) {
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	for i := range b.keys {
		b.keys[i] = 7
	}
	b.rank(tm, 1)
	if bad := b.fullVerify(); bad != 0 {
		t.Fatalf("%d out-of-order pairs on near-constant input", bad)
	}
}

// oracleRanks is the serial counting sort rank is checked against: count
// every key, then running totals.
func oracleRanks(keys []int32, maxKey int) []int32 {
	ranks := make([]int32, maxKey)
	for _, k := range keys {
		ranks[k]++
	}
	for k := 1; k < maxKey; k++ {
		ranks[k] += ranks[k-1]
	}
	return ranks
}

// TestRanksMatchSerialOracle: after each of three class-S passes the
// ranks are exactly the serial counting sort's, on team sizes that split
// the keys evenly and unevenly and under schedules that deal the chunks
// to whichever worker asks — who counted a key must not matter.
func TestRanksMatchSerialOracle(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 7} {
		for _, s := range []team.Schedule{team.Static, team.Dynamic} {
			b, err := New('S', threads, kernel.Env{})
			if err != nil {
				t.Fatal(err)
			}
			tm := team.New(threads, team.WithSchedule(s))
			b.createSeq(tm)
			for it := 1; it <= 3; it++ {
				b.rank(tm, it)
				want := oracleRanks(b.keys, b.maxKey)
				for k := range want {
					if b.dens[k] != want[k] {
						tm.Close()
						t.Fatalf("threads %d %s pass %d: rank of key %d = %d, oracle %d", threads, s, it, k, b.dens[k], want[k])
					}
				}
			}
			tm.Close()
		}
	}
}

// TestKeySequenceMatchesRecorded pins the generated keys themselves:
// IS's own verification only checks that the ranks sort whatever keys
// createSeq produced, so a generator that drifted would still pass it.
// The FNV-1a hashes were recorded with the double-precision randlc on
// one thread; every chunk seeds itself, so team sizes that split the
// keys unevenly and a schedule that deals many small chunks must hash
// the same.
func TestKeySequenceMatchesRecorded(t *testing.T) {
	recorded := map[byte]uint64{'S': 0xfda3c49741c88ed9, 'W': 0xb3d1378eb46c774b}
	for _, class := range []byte{'S', 'W'} {
		for _, threads := range []int{1, 2, 3, 7} {
			for _, s := range []team.Schedule{team.Static, team.Dynamic} {
				b, err := New(class, threads, kernel.Env{})
				if err != nil {
					t.Fatal(err)
				}
				tm := team.New(threads, team.WithSchedule(s))
				b.createSeq(tm)
				tm.Close()
				h := fnv.New64a()
				var buf [4]byte
				for _, k := range b.keys {
					binary.LittleEndian.PutUint32(buf[:], uint32(k))
					h.Write(buf[:])
				}
				if got := h.Sum64(); got != recorded[class] {
					t.Errorf("class %c threads %d %s: key hash %#x, recorded %#x", class, threads, s, got, recorded[class])
				}
			}
		}
	}
}

// BenchmarkCreateSeq is IS.W's key generation on two workers, once per
// run.
func BenchmarkCreateSeq(b *testing.B) {
	is, err := New('W', 2, kernel.Env{})
	if err != nil {
		b.Fatal(err)
	}
	tm := team.New(2)
	defer tm.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		is.createSeq(tm)
	}
}
