// Package randdp implements the NAS Parallel Benchmarks portable
// pseudorandom number generator (the Fortran routines randlc and vranlc
// from NPB2.3-serial), a 46-bit linear congruential generator
//
//	x_{k+1} = a * x_k  (mod 2^46)
//
// evaluated in exact integer arithmetic. The Fortran original forms the
// same product from 23-bit halves in double precision because it has no
// 64-bit integers; every step of that emulation is exact by
// construction, so x = (x*a) & (2^46-1) on a uint64 yields the same
// sequence bit for bit (randdp_test.go keeps the literal transcription
// as the oracle). All NPB benchmarks that need random input (EP, CG's
// makea, FT's initial conditions, IS key generation, MG's zran3) share
// this generator, so its bit-exact behaviour is what makes benchmark
// runs deterministic and verifiable across languages — the Java
// translation studied in the paper uses the same recurrence.
//
// Domain: states and multipliers are integers in [1, 2^46). Gen
// constructors check that once; the per-draw paths never do.
package randdp

import "fmt"

// One step is x = x*a & Mask, and its number is R46*float64(int64(x)):
// a caller that steps states of its own (EP's batch, from Next16) does
// it with these.
const (
	Mask = 1<<46 - 1       // 2^46 - 1
	R46  = 1.0 / (1 << 46) // 2^-46
)

// DefaultSeed is the seed used by most NPB benchmarks.
const DefaultSeed = 314159265.0

// A is the standard NPB multiplier 5^13.
const A = 1220703125.0

// Gen is one generator: a 46-bit state and multiplier held as integers.
// The zero Gen is not valid; build one with New or NewStream. Copying a
// Gen forks the sequence at its current position.
type Gen struct{ x, a uint64 }

// Stream is the historical name of Gen.
type Stream = Gen

// New returns a generator at state seed with multiplier a. It panics
// when either lies outside [1, 2^46): such a value is a programming
// error, not a sequence.
func New(seed, a uint64) Gen {
	if seed-1 >= Mask || a-1 >= Mask {
		panic(fmt.Sprintf("randdp: seed %d or multiplier %d outside [1, 2^46)", seed, a))
	}
	return Gen{x: seed, a: a}
}

// NewStream is New for callers holding the Fortran-style float64
// values; a zero multiplier selects the standard 5^13. It panics on a
// seed or multiplier that is not an integer in [1, 2^46).
func NewStream(seed, a float64) *Stream {
	if a == 0 {
		a = A
	}
	x, m := uint64(int64(seed)), uint64(int64(a))
	if float64(x) != seed || float64(m) != a {
		panic(fmt.Sprintf("randdp: seed %v or multiplier %v is not an integer", seed, a))
	}
	g := New(x, m)
	return &g
}

// Next advances the generator one step and returns the new state scaled
// into (0, 1).
//
// Hot path: one draw; IS key generation and CG's sprnvc call it per number.
func (g *Gen) Next() float64 {
	g.x = g.x * g.a & Mask
	return R46 * float64(int64(g.x))
}

// Fill fills y with the next len(y) numbers of the sequence. One chain
// x ← a·x is bound by the multiplier's latency, so four interleaved
// lanes each step by a⁴: the state x and the three draws after it,
// which are the same integers the single chain visits. A tail shorter
// than four continues from the state with a.
//
// Hot path: the vranlc loop under FT's and MG's input generation (EP's
// batches step lanes of their own, from Next16).
func (g *Gen) Fill(y []float64) {
	x, a := g.x, g.a
	x1 := x * a & Mask
	x2 := x1 * a & Mask
	x3 := x2 * a & Mask
	a4 := a * a & Mask
	a4 = a4 * a4 & Mask
	for ; len(y) >= 4; y = y[4:] {
		// The wrapped 64-bit product keeps the low 46 bits of the true
		// one; x < 2^46 converts exactly, through int64 because that is
		// a single instruction where uint64 needs a sign fix-up.
		q := y[:4:4]
		x = x * a4 & Mask
		q[0] = R46 * float64(int64(x1))
		q[1] = R46 * float64(int64(x2))
		q[2] = R46 * float64(int64(x3))
		q[3] = R46 * float64(int64(x))
		x1, x2, x3 = x1*a4&Mask, x2*a4&Mask, x3*a4&Mask
	}
	for i := range y {
		x = x * a & Mask
		y[i] = R46 * float64(int64(x))
	}
	g.x = x
}

// Next16 sets x to the next 16 states of the sequence, in order, moves
// the generator past them and returns a^16 mod 2^46. Sixteen lanes
// that each step by that multiplier visit, together, the integers the
// one chain visits, as Fill's four lanes stepping by a⁴ do: lane i
// holds the states i+1, i+17, i+33, ... places on from the start.
func (g *Gen) Next16(x *[16]uint64) (a16 uint64) {
	for i := range x {
		g.x = g.x * g.a & Mask
		x[i] = g.x
	}
	return pow46(g.a, 16)
}

// Skip jumps the generator ahead by n positions in O(log n) time; n <= 0
// leaves it where it is.
func (g *Gen) Skip(n int) { g.x = g.x * pow46(g.a, n) & Mask }

// Seed returns the current raw 46-bit state.
func (g *Gen) Seed() float64 { return float64(int64(g.x)) }

// pow46 returns a^n mod 2^46 by binary exponentiation, 1 for n <= 0.
func pow46(a uint64, n int) uint64 {
	r := uint64(1)
	for ; n > 0; n >>= 1 {
		if n&1 != 0 {
			r = r * a & Mask
		}
		a = a * a & Mask
	}
	return r
}

// Randlc advances *x to the next element of the sequence with
// multiplier a and returns it scaled into (0, 1): the NPB randlc
// signature over the integer core. *x and a must be integers in
// [1, 2^46), as every value this package produces is; they are not
// checked here, and a fractional part would be truncated.
func Randlc(x *float64, a float64) float64 {
	g := Gen{uint64(int64(*x)), uint64(int64(a))}
	r := g.Next()
	*x = g.Seed()
	return r
}

// Vranlc fills y[:n] with the next n elements of the sequence, advancing
// *x n times: the NPB vranlc signature, same domain as Randlc.
func Vranlc(n int, x *float64, a float64, y []float64) {
	g := Gen{uint64(int64(*x)), uint64(int64(a))}
	g.Fill(y[:n])
	*x = g.Seed()
}

// Ipow46 computes a^exponent (mod 2^46), the NPB ipow46 helper used to
// jump a generator ahead; a is an integer in [1, 2^46) as for Randlc.
func Ipow46(a float64, exponent int) float64 {
	return float64(pow46(uint64(int64(a)), exponent))
}
