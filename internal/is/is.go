// Package is implements the NPB IS kernel: ranking (sorting) of integer
// keys with a linear-time histogram/counting method. IS is the second
// member of the paper's "unstructured" benchmark group and the one whose
// scalability the paper expected to be poor — the per-thread work is
// small relative to the data movement.
//
// The key sequence is generated from the shared NPB generator (four
// draws summed per key, giving an approximately Gaussian key
// distribution). Each timed iteration perturbs two keys and re-ranks the
// whole array; after the final iteration the keys are permuted into
// sorted order and fully verified (the official full_verify criterion:
// zero out-of-order pairs; the partial-verification rank tables of the C
// original are not embedded — see DESIGN.md on verification tiers).
package is

import (
	"fmt"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// maxIterations is the number of ranking passes, fixed at 10 for all
// classes in the original.
const maxIterations = 10

type params struct {
	totalKeysLog2 uint
	maxKeyLog2    uint
}

var classes = map[byte]params{
	'S': {16, 11},
	'W': {20, 16},
	'A': {23, 19},
	'B': {25, 21},
	'C': {27, 23},
}

// Benchmark is a configured IS instance.
type Benchmark struct {
	Class   byte
	numKeys int
	maxKey  int
	threads int
	env     kernel.Env

	keys  []int32 // the key array (regenerated at the start of Run)
	buff2 []int32 // key copy used during ranking
	dens  []int32 // global key density / cumulative ranks
	local [][]int32

	// Steady-state machinery: the ranking-region body is built once by
	// New and reused every pass (a closure literal at the Run call site
	// would allocate per pass), keeping the timed loop free of heap
	// allocation (enforced by internal/allocgate).
	tm   *team.Team
	iter int // cycling iteration counter for Iter
	body func(id int)
}

// New configures IS for the given class and thread count. With
// env.Timers set, each pass's counting region and serial prefix sum are
// profiled.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	p, ok := classes[class]
	if !ok {
		return nil, fmt.Errorf("is: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("is: threads %d < 1", threads)
	}
	b := &Benchmark{
		Class:   class,
		numKeys: 1 << p.totalKeysLog2,
		maxKey:  1 << p.maxKeyLog2,
		threads: threads,
		env:     env,
	}
	b.keys = make([]int32, b.numKeys)
	b.buff2 = make([]int32, b.numKeys)
	b.dens = make([]int32, b.maxKey)
	b.local = make([][]int32, threads)
	for i := range b.local {
		b.local[i] = make([]int32, b.maxKey)
	}
	// Both phases of the body are integer sums over disjoint outputs, so
	// any schedule produces identical ranks. One region per pass.
	b.body = func(id int) {
		tm := b.tm
		loc := b.local[id]
		for i := range loc {
			loc[i] = 0
		}
		// Each worker histograms whatever key chunks it claims; the
		// combine below sums the same per-worker counts regardless of
		// which chunks landed where.
		for it := tm.Loop(id, 0, b.numKeys); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				b.buff2[i] = b.keys[i]
				loc[b.buff2[i]]++
			}
		}
		tm.BarrierID(id)
		// Combine local histograms into the global density, each chunk
		// owning a contiguous key sub-range.
		for it := tm.Loop(id, 0, b.maxKey); it.Next(); {
			for key := it.Lo; key < it.Hi; key++ {
				sum := int32(0)
				for w := 0; w < tm.Size(); w++ {
					sum += b.local[w][key]
				}
				b.dens[key] = sum
			}
		}
	}
	return b, nil
}

// NumKeys returns the number of keys ranked per iteration.
func (b *Benchmark) NumKeys() int { return b.numKeys }

// MaxKey returns the exclusive key upper bound.
func (b *Benchmark) MaxKey() int { return b.maxKey }

// createSeq regenerates the key array on tm, as create_seq in the C
// original: each key is the sum of four generator draws scaled by
// maxKey/4. Key i owns draws 4i..4i+3 of the one stream, and every
// chunk of the loop jumps its own generator to its first key's draw,
// so any team size and schedule produce the same keys.
func (b *Benchmark) createSeq(tm *team.Team) {
	k := float64(b.maxKey / 4)
	tm.Run(func(id int) {
		for it := tm.Loop(id, 0, b.numKeys); it.Next(); {
			g := randdp.New(randdp.DefaultSeed, randdp.A)
			g.Skip(4 * it.Lo)
			for i := it.Lo; i < it.Hi; i++ {
				x := g.Next()
				x += g.Next()
				x += g.Next()
				x += g.Next()
				b.keys[i] = int32(k * x)
			}
		}
	})
}

// rank performs one ranking pass: perturb two keys (so each iteration
// does distinct work), histogram all keys, and prefix-sum the histogram
// into cumulative ranks.
func (b *Benchmark) rank(tm *team.Team, iteration int) {
	b.keys[iteration] = int32(iteration)
	b.keys[iteration+maxIterations] = int32(b.maxKey - iteration)

	b.tm = tm
	b.env.Start("count")
	tm.Run(b.body)
	b.env.Stop("count")

	// Serial prefix sum (O(maxKey); the C original is serial here too),
	// the running total in a register: dens[i+1] += dens[i] would pass it
	// through a store and the load that follows.
	b.env.Start("prefix")
	dens, sum := b.dens, int32(0)
	for i, d := range dens {
		sum += d
		dens[i] = sum
	}
	b.env.Stop("prefix")
}

// Iter runs one timed ranking pass on tm, whose Size must equal the
// thread count the Benchmark was built with, cycling the perturbation
// index 1..maxIterations as Run's timed loop does. Iter is the
// steady-state hook the allocation gate measures: after the first call
// it performs no heap allocation.
func (b *Benchmark) Iter(tm *team.Team) {
	b.iter++
	if b.iter > maxIterations {
		b.iter = 1
	}
	b.rank(tm, b.iter)
}

// fullVerify permutes the keys into sorted order using the final
// cumulative ranks and counts out-of-order pairs, as full_verify.
func (b *Benchmark) fullVerify() int {
	// dens currently holds cumulative counts; walking keys backwards
	// through --dens[key] yields a stable sort placement.
	for i := 0; i < b.numKeys; i++ {
		b.buff2[i] = b.keys[i]
	}
	for i := b.numKeys - 1; i >= 0; i-- {
		k := b.buff2[i]
		b.dens[k]--
		b.keys[b.dens[k]] = k
	}
	bad := 0
	for i := 1; i < b.numKeys; i++ {
		if b.keys[i-1] > b.keys[i] {
			bad++
		}
	}
	return bad
}

// Result reports one IS run.
type Result struct {
	OutOfSeq  int // out-of-order pairs after the final permutation
	KeysMoved int
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the benchmark: key generation (untimed), one
// untimed ranking pass, maxIterations timed passes, then full
// verification.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	b.createSeq(tm)
	b.rank(tm, 1) // untimed warm pass, as in the original

	b.iter = 0
	start := time.Now()
	for it := 1; it <= maxIterations && !tm.Cancelled(); it++ {
		b.Iter(tm)
	}
	elapsed := time.Since(start)

	// A cancelled run's ranks are partial, so there is nothing sound to
	// permute: it reports -1 and fails verification.
	bad := -1
	if !tm.Cancelled() {
		bad = b.fullVerify()
	}

	var res Result
	res.OutOfSeq = bad
	res.KeysMoved = b.numKeys * maxIterations
	rep := &verify.Report{Tier: verify.TierOfficial}
	rep.Add("out-of-order pairs", float64(bad), 0)
	res.Outcome = b.env.Outcome(elapsed, float64(res.KeysMoved)*1e-6, rep)
	return res
}
