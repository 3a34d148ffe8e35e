// Package rowcheck tests lanegen's kernels against their scalar bodies.
// A package calls Kernels for its row kernels and Lanes for its lane
// kernels from its tests, Modes for a test of its own that must hold on
// both paths, and Golden to hold its benchmark's portable path to the
// recorded printout.
package rowcheck

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"npbgo/internal/simd"
)

// Modes runs run once for each level this host can take, with
// simd.Width set to width: the portable path (1) always, then 4 and 8
// where the CPU has them. The switch is restored when the test ends.
func Modes(t *testing.T, run func(width int)) {
	t.Helper()
	host := simd.Width
	t.Cleanup(func() { simd.Width = host })
	for _, width := range []int{1, 4, 8} {
		if width > host {
			t.Logf("simd.Width %d: not on this host", width)
			continue
		}
		simd.Width = width
		run(width)
	}
}

// Golden runs a benchmark at class S, one and two threads, with
// simd.Width forced to 1 and then to 4, so that every generated kernel,
// nscore's included, runs its scalar body, then its AVX kernel alone:
// what an amd64 CPU without AVX, and one without AVX-512, run. (The
// root package's golden runs the host's own level.) verify returns the
// verification printout at the given thread count; each must be the
// name + ".S" block of testdata/bitidentity.golden, or for a kernel,
// whose printout depends on the team size, the name + ".S.t<threads>"
// one (read from the package directory two levels below the root).
// Other architectures run the same scalar Go, but gc may fuse x*y + z
// there (arm64), so this pins their bits only where it runs: amd64,
// and 386 in CI.
func Golden(t *testing.T, name string, verify func(threads int) string) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/bitidentity.golden")
	if err != nil {
		t.Fatal(err)
	}
	block := func(key string) (string, bool) {
		_, rest, ok := strings.Cut(string(data), "== "+key+"\n")
		want, _, _ := strings.Cut(rest, "\n== ")
		return want + "\n", ok
	}
	host := simd.Width
	t.Cleanup(func() { simd.Width = host })
	for _, width := range []int{1, 4} {
		if width > host {
			t.Logf("simd.Width %d: not on this host", width)
			continue
		}
		simd.Width = width
		for _, threads := range []int{1, 2} {
			key := fmt.Sprintf("%s.S.t%d", name, threads)
			want, ok := block(key)
			if !ok {
				key = name + ".S"
				if want, ok = block(key); !ok {
					t.Fatalf("no %s.S block in the golden file", name)
				}
			}
			if got := verify(threads); got != want {
				t.Errorf("%s at %d threads, simd.Width %d:\n%s\nrecorded:\n%s", key, threads, width, got, want)
			}
		}
	}
}

// Kernels runs each kernel, a pair of a generated <name>Row wrapper
// and the scalar <name>, once through the wrapper and once point by
// point through the scalar body, on rows of every length from 0 to 17
// (so every count of 8-point groups meets every 4-point group and
// scalar tail), filled with random values with zeros of both signs,
// infinities of both signs, NaNs and subnormals among them, and fails
// unless every row is equal afterwards, bit for bit — save that any
// two NaNs are equal: which operand's payload a NaN result carries
// depends on the order the compiler gives a commutative instruction its
// operands, and no kernel's caller ever sees a NaN. It does so on each
// path (Modes).
func Kernels(t *testing.T, kernels [][2]any) {
	t.Helper()
	fill := specials(filler(39), 40)
	Modes(t, func(width int) {
		for _, k := range kernels {
			row, scalar := reflect.ValueOf(k[0]), reflect.ValueOf(k[1])
			name := funcName(scalar)
			st := scalar.Type()
			for count := 0; count < 18; count++ {
				for trial := 0; trial < 20; trial++ {
					var got, want [][]float64
					args := make([]reflect.Value, st.NumIn())
					for a := range args {
						if st.In(a).Kind() == reflect.Float64 {
							args[a] = reflect.ValueOf(fill())
							continue
						}
						r := make([]float64, count)
						for e := range r {
							r[e] = fill()
						}
						got = append(got, r)
						want = append(want, append([]float64(nil), r...))
						args[a] = reflect.ValueOf(r)
					}
					row.Call(args)
					for p := 0; p < count; p++ {
						sargs := make([]reflect.Value, len(args))
						r := 0
						for a := range args {
							if st.In(a).Kind() == reflect.Float64 {
								sargs[a] = args[a]
								continue
							}
							sargs[a] = reflect.ValueOf((*[1]float64)(want[r][p:]))
							r++
						}
						scalar.Call(sargs)
					}
					for r := range want {
						for e := range want[r] {
							g, w := got[r][e], want[r][e]
							if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
								t.Fatalf("%s width %d length %d: row %d [%d] = %v (%#x), scalar %v (%#x)", name, width, count, r, e,
									got[r][e], math.Float64bits(got[r][e]), want[r][e], math.Float64bits(want[r][e]))
							}
						}
					}
				}
			}
		}
	})
}

// Lanes runs each kernel, a pair of a generated <name>8 wrapper and the
// scalar <name>, on random lane-form arrays, once through the wrapper
// and once lane by lane through the scalar body, and fails unless every
// lane the wrapper was asked to run of every array is equal afterwards,
// bit for bit, save that any two NaNs are equal (as in Kernels). The
// lane count is the wrapper's array type's; the trials ask for each
// count of lanes in turn. About one value in four is a zero, of either
// sign, so over the trials every lane meets zeros, the scalars as well.
// Every other run of trials through the lane counts (so twice as many
// trials as the plain ones alone) also makes one value in sixteen an
// infinity, a NaN or a subnormal. Only every other:
// a kernel may read over a hundred values a lane, so with the mix in
// every trial nearly every lane would meet an infinity or a NaN and
// carry a NaN to each output, which any NaN then matches, and a kernel
// that rounded one sum in another order would pass (LU's lowerStep
// did). It does so on each path (Modes).
func Lanes(t *testing.T, kernels [][2]any) {
	t.Helper()
	plain := filler(41)
	special := specials(plain, 42)
	Modes(t, func(width int) {
		for _, k := range kernels {
			wrapper, scalar := reflect.ValueOf(k[0]), reflect.ValueOf(k[1])
			name := funcName(scalar)
			wt, st := wrapper.Type(), scalar.Type()
			lanes := 0
			for a := 1; a < wt.NumIn(); a++ {
				if wt.In(a).Kind() == reflect.Pointer {
					lanes = wt.In(a).Elem().Elem().Len()
				}
			}
			for trial := 0; trial < 400; trial++ {
				live := 1 + trial%lanes
				fill := plain
				if trial/lanes%2 == 1 {
					fill = special
				}
				args := make([]reflect.Value, wt.NumIn())
				want := make([]reflect.Value, len(args))
				args[0] = reflect.ValueOf(live)
				for a := 1; a < len(args); a++ {
					if wt.In(a).Kind() == reflect.Float64 {
						args[a] = reflect.ValueOf(fill())
						continue
					}
					args[a] = reflect.New(wt.In(a).Elem())
					arr := args[a].Elem()
					for e := 0; e < arr.Len(); e++ {
						for q := 0; q < lanes; q++ {
							arr.Index(e).Index(q).SetFloat(fill())
						}
					}
					want[a] = reflect.New(wt.In(a).Elem())
					want[a].Elem().Set(arr)
				}
				wrapper.Call(args)
				for q := 0; q < live; q++ {
					sargs := make([]reflect.Value, len(args)-1)
					for a := range sargs {
						if !want[a+1].IsValid() {
							sargs[a] = args[a+1]
							continue
						}
						sargs[a] = reflect.New(st.In(a).Elem())
						for e := 0; e < sargs[a].Elem().Len(); e++ {
							sargs[a].Elem().Index(e).Set(want[a+1].Elem().Index(e).Index(q))
						}
					}
					scalar.Call(sargs)
					for a := range sargs {
						if !want[a+1].IsValid() {
							continue
						}
						for e := 0; e < sargs[a].Elem().Len(); e++ {
							g := args[a+1].Elem().Index(e).Index(q).Float()
							w := sargs[a].Elem().Index(e).Float()
							if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
								t.Fatalf("%s width %d live %d: argument %d [%d] lane %d = %v (%#x), scalar %v (%#x)", name, width, live, a, e, q,
									g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	})
}

// Lane returns lane q of a lane-form array.
func Lane(a [][8]float64, q int) []float64 {
	s := make([]float64, len(a))
	for e := range a {
		s[e] = a[e][q]
	}
	return s
}

// filler returns a source of random values in [-0.5, 0.5), one in four
// of them a zero of either sign.
func filler(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64() - 0.5
	}
}

// specials returns a source that draws from fill but makes one value
// in sixteen an infinity of either sign, a NaN or a subnormal of either
// sign.
func specials(fill func() float64, seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		if rng.Intn(16) != 0 {
			return fill()
		}
		switch rng.Intn(4) {
		case 0:
			return math.Inf(1 - 2*rng.Intn(2))
		case 1:
			return math.NaN()
		}
		return math.Copysign(math.Float64frombits(1+uint64(rng.Int63n(1<<52-1))), 0.5-float64(rng.Intn(2)))
	}
}

func funcName(f reflect.Value) string {
	name := runtime.FuncForPC(f.Pointer()).Name()
	return name[strings.LastIndex(name, ".")+1:]
}
