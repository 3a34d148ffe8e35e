// Package ep implements the NPB EP (Embarrassingly Parallel) kernel: it
// generates pairs of uniform pseudorandom numbers, maps them to Gaussian
// deviates with the Marsaglia polar method, and tallies the deviates in
// square annuli. EP is the fifth NPB kernel (the paper lists five
// kernels; it reports results for the other four, and EP is included
// here for suite completeness as in NPB2.3/3.0).
//
// Independent batches of 2^mk pairs are generated from jumped-ahead
// generator seeds, which is what makes the kernel embarrassingly
// parallel: the batch list is statically split over the team and partial
// sums are combined in deterministic order.
package ep

import (
	"fmt"
	"math"
	"time"

	"npbgo/internal/fault"
	"npbgo/internal/kernel"
	"npbgo/internal/randdp"
	"npbgo/internal/simd"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/verify"
)

//go:generate go run ../lanegen

const (
	mk    = 16 // batch size exponent: 2^mk pairs per batch
	nk    = 1 << mk
	nq    = 10 // number of annuli tallied
	seed  = 271828183
	amult = randdp.A
)

// classM maps problem class to the total-pairs exponent m (2^m pairs).
var classM = map[byte]int{'S': 24, 'W': 25, 'A': 28, 'B': 30, 'C': 32}

// reference sums from the official ep verification, per class.
var reference = map[byte][2]float64{
	'S': {-3.247834652034740e+3, -6.958407078382297e+3},
	'W': {-2.863319731645753e+3, -6.320053679109499e+3},
	'A': {-4.295875165629892e+3, -1.580732573678431e+4},
	'B': {4.033815542441498e+4, -2.660669192809235e+4},
	'C': {4.764367927995374e+4, -8.084072988043731e+4},
}

// Benchmark is one configured EP instance. All buffers a run needs —
// per-worker accumulation states, sub-block scratch, the hoisted region
// body — are allocated once here, so the batch sweep itself runs
// allocation-free (gated at zero by internal/allocgate).
type Benchmark struct {
	Class   byte
	m       int
	nn      int // number of 2^mk batches
	threads int
	env     kernel.Env

	states []batchState // per-block tallies, reset each Iter
	scr    []scratch    // per-worker sub-block buffers
	phases []string     // per-worker timer names when profiling
	tm     *team.Team   // team of the current Iter, read by body
	body   func(id int) // hoisted batch-sweep region body
}

// Result reports one EP run.
type Result struct {
	Sx, Sy float64     // Gaussian deviate sums
	Q      [nq]float64 // annulus counts
	Gc     float64     // total accepted pairs
	kernel.Outcome
}

// New configures EP for the given class ('S','W','A','B','C') and thread
// count. On cancellation every worker stops at its next batch boundary.
// With env.Timers set, each worker charges its batch loop to its own
// timer (t_batch/w<id>), so the profile shows both the per-thread time
// split and, via lap counts, how many batches each worker processed —
// the per-thread view the paper's load-balance analysis is built on.
func New(class byte, threads int, env kernel.Env) (*Benchmark, error) {
	m, ok := classM[class]
	if !ok {
		return nil, fmt.Errorf("ep: unknown class %q", string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("ep: threads %d < 1", threads)
	}
	b := &Benchmark{Class: class, m: m, threads: threads, env: env}
	b.nn = 1 << (b.m - mk)
	b.states = make([]batchState, threads)
	b.scr = make([]scratch, threads)
	if env.Timers != nil {
		b.phases = make([]string, threads)
		for id := range b.phases {
			b.phases[id] = timer.Worker("t_batch", id)
		}
	}
	// Per-worker batch sweep, constructed once and reused every run.
	// Tallies accumulate per static block (it.Chunk()), not per worker, so
	// the final sums are bit-identical under every schedule.
	b.body = func(id int) {
		tm := b.tm
		scr := &b.scr[id]
		phase := ""
		if b.env.Timers != nil {
			phase = b.phases[id]
		}
		for it := tm.ReduceBlocks(id, 0, b.nn); it.Next(); {
			st := &b.states[it.Chunk()]
			for kk := it.Lo; kk < it.Hi; kk++ {
				if tm.Cancelled() {
					return
				}
				fault.Maybe("ep.batch")
				if phase != "" {
					b.env.Timers.Start(phase)
				}
				runBatch(kk, st, scr)
				if phase != "" {
					b.env.Timers.Stop(phase)
				}
			}
		}
	}
	return b, nil
}

// Iter runs one steady-state pass over every batch on tm: the whole
// timed section of EP, with no per-pass allocation. Run wraps it;
// internal/allocgate measures it.
func (b *Benchmark) Iter(tm *team.Team) {
	b.tm = tm
	for i := range b.states {
		b.states[i] = batchState{}
	}
	tm.Run(b.body)
}

// Pairs returns the total number of random pairs the configured class
// generates.
func (b *Benchmark) Pairs() float64 { return math.Pow(2, float64(b.m)) }

// batchState is one static block's accumulation state. The states are
// adjacent 96-byte elements of one slice, so two workers' tallies can
// share a cache line; they stay unpadded because padding to 128 bytes
// measured no different at two threads (EXPERIMENTS.md): the tallies
// are three stores beside each accepted pair's log, sqrt and divide.
type batchState struct {
	sx, sy float64
	q      [nq]float64
}

// sub is the number of pairs runBatch works on at a time: a sub-block's
// five rows of sub values are 20 KiB, so every pass over them after the
// first hits L1.
const sub = 512

// scratch is one worker's sub-block buffers. The rows past the count of
// accepted pairs hold whatever the last sub-block or the portable body's
// rejected pairs left there.
type scratch struct {
	gen [2][8]uint64 // the lane generator: the states of the next eight pairs' first ([0]) and second ([1]) uniforms
	x1  [sub]float64 // the accepted pairs' first coordinates, compacted
	x2  [sub]float64 // their second coordinates
	t   [sub]float64 // t = x1²+x2², then sqrt(-2 ln t / t) (gauss)
	f   [sub]float64 // the fraction f of t = 2^k·(1+f) (reduce)
	k   [sub]float64 // and its exponent k
}

// runBatch processes batch index kk (0-based: ep.f iterates k = 1..nn
// with k_offset = -1, so the first batch starts from the raw seed) and
// accumulates into st. Batch kk starts 2*nk*kk draws into the stream;
// ep.f reaches that seed by binary exponentiation of a^(2*nk) over kk,
// which is the jump Skip makes.
//
// The batch's stream then runs as sixteen lanes of the generator, the
// states of eight consecutive pairs' two uniforms, each stepped by a^16
// (DESIGN.md §39), sub pairs at a time. A sub-block is two kernels and a
// loop, none of which carries both an unpredictable branch and a long
// dependency chain: pairs maps the uniforms to (-1,1)², splits each t
// into the fraction and exponent of its logarithm and packs the
// accepted pairs at the front of the rows in stream order; gaussRow
// turns each accepted t into sqrt(-2 ln t / t), eight or four at a
// time; tally forms the deviates and adds and counts them in stream
// order, so sx, sy and q are the sums of the one-loop form bit for bit.
func runBatch(kk int, st *batchState, s *scratch) {
	g := randdp.New(seed, amult)
	g.Skip(2 * nk * kk)
	var x [16]uint64
	a16 := g.Next16(&x)
	for q := range s.gen[0] {
		s.gen[0][q], s.gen[1][q] = x[2*q], x[2*q+1]
	}
	for blk := 0; blk < nk/sub; blk++ {
		n := pairs(&s.gen, a16, sub/8, &s.x1, &s.x2, &s.t, &s.f, &s.k)
		t := s.t[:n]
		gaussRow(t, s.f[:n], s.k[:n])
		st.tally(s.x1[:n], s.x2[:n], t)
	}
}

// tally forms the deviates g1 = x1·t3 and g2 = x2·t3 of accepted pairs,
// whose coordinates are x1 and x2 and whose scale is t3 (gauss's t),
// adds them to sx and sy in stream order, and counts each pair in the
// annulus max(|g1|, |g2|) names: math.Abs and max compile without
// branches, which on the deviates' signs no predictor would learn. A
// bound of nq or more panics at the index check.
func (st *batchState) tally(x1, x2, t3 []float64) {
	x1, x2 = x1[:len(t3)], x2[:len(t3)]
	sx, sy := st.sx, st.sy
	for i, t := range t3 {
		g1, g2 := x1[i]*t, x2[i]*t
		st.q[int(max(math.Abs(g1), math.Abs(g2)))]++
		sx += g1
		sy += g2
	}
	st.sx, st.sy = sx, sy
}

// pairs runs steps steps of the lane generator gen, whose states step by
// a: each step takes eight pairs, pair q's uniforms from gen[0][q] and
// gen[1][q]. It maps each pair to x1 = 2u-1, x2 = 2v-1 and t = x1²+x2²,
// and stores the pairs with t <= 1, their t and the f and k of reduce(t)
// at the front of the rows in stream order, returning how many. gen is
// left at the states of the pairs after the last. At simd.Width 8 it
// runs pairsAVX512 (pairs_amd64.s), below it pairsGo: the same lanes in
// the same order, which the assembly is tested against.
func pairs(gen *[2][8]uint64, a uint64, steps int, x1, x2, t, f, k *[sub]float64) int {
	if uint(steps) > sub/8 {
		panic(fmt.Sprintf("ep: %d steps of eight pairs do not fit rows of %d", steps, sub))
	}
	if simd.Width >= 8 {
		return pairsAVX512(gen, a, steps, x1, x2, t, f, k)
	}
	return pairsGo(gen, a, steps, x1, x2, t, f, k)
}

// pairsGo is pairs one pair at a time. It stores every pair at the write
// index and advances the index under the t <= 1 test, which compiles to
// a conditional move, so a rejected pair is overwritten by the next.
func pairsGo(gen *[2][8]uint64, a uint64, steps int, x1, x2, t, f, k *[sub]float64) int {
	n := 0
	for range steps {
		for q := range gen[0] {
			u, v := gen[0][q], gen[1][q]
			gen[0][q], gen[1][q] = u*a&randdp.Mask, v*a&randdp.Mask
			p1 := 2.0*(randdp.R46*float64(int64(u))) - 1.0
			p2 := 2.0*(randdp.R46*float64(int64(v))) - 1.0
			tt := p1*p1 + p2*p2
			j := n & (sub - 1) // n < sub while a pair is left: the mask only shows the compiler that the stores are in range
			x1[j], x2[j], t[j] = p1, p2, tt
			f[j], k[j] = reduce(tt)
			if tt <= 1.0 {
				n++
			}
		}
	}
	return n
}

// reduce is the argument reduction of math.Log for a positive normal x:
// x = 2^k·(1+f) with √2/2 <= 1+f < √2, returned as f and k. It leaves
// out the handling of zero, negative, infinite, NaN and subnormal
// arguments, none of which runBatch can produce (the generator's state
// is odd, so t >= 2^-90), and the one data-dependent choice, whether
// the fraction f1 in [1/2, 1) lies below √2/2 and is doubled: on
// uniform input that is a coin flip, so it is taken from the sign of an
// integer difference of the bit patterns, which order as the values do.
func reduce(x float64) (f, k float64) {
	const halfSqrt2 = 0x3FE6A09E667F3BCD // bits of math.Sqrt2 / 2
	b := math.Float64bits(x)
	fb := b&(1<<52-1) | 0x3FE<<52
	d := (fb - halfSqrt2) >> 63
	return math.Float64frombits(fb+d<<52) - 1, float64(int(b>>52) - 0x3FE - int(d))
}

// gauss sets t to sqrt(-2 ln t / t), given the fraction f and the
// exponent k of t from reduce: the float part of math.Log — its
// polynomial and final combination, term for term, with its constants
// written out (ln2Hi, ln2Lo, then L1..L7) — so that ln t has math.Log's
// bits, followed by the polar method's scale of the pair.
//
//lanegen:rows
func gauss(t, f, k *[1]float64) {
	s := f[0] / (2 + f[0])
	s2 := s * s
	s4 := s2 * s2
	t1 := s2 * (6.666666666666735130e-01 + s4*(2.857142874366239149e-01+s4*(1.818357216161805012e-01+s4*1.479819860511658591e-01)))
	t2 := s4 * (3.999999999940941908e-01 + s4*(2.222219843214978396e-01+s4*1.531383769920937332e-01))
	r := t1 + t2
	hfsq := 0.5 * f[0] * f[0]
	lg := k[0]*6.93147180369123816490e-01 - ((hfsq - (s*(hfsq+r) + k[0]*1.90821492927058770002e-10)) - f[0])
	t[0] = math.Sqrt(-2.0 * lg / t[0])
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (b *Benchmark) Run() kernel.Outcome { return b.RunResult().Outcome }

// RunResult executes the kernel and returns its result.
func (b *Benchmark) RunResult() Result {
	tm, done := b.env.Team(b.threads)
	defer done()

	start := time.Now()
	b.Iter(tm)
	elapsed := time.Since(start)

	var res Result
	for id := 0; id < b.threads; id++ {
		res.Sx += b.states[id].sx
		res.Sy += b.states[id].sy
		for l := 0; l < nq; l++ {
			res.Q[l] += b.states[id].q[l]
		}
	}
	for l := 0; l < nq; l++ {
		res.Gc += res.Q[l]
	}

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := reference[b.Class]; ok {
		rep.Add("sx", fault.CorruptFloat("ep.verify", res.Sx), ref[0])
		rep.Add("sy", res.Sy, ref[1])
	} else {
		rep.Tier = verify.TierNone
	}
	res.Outcome = b.env.Outcome(elapsed, b.Pairs()*1e-6, rep)
	return res
}
