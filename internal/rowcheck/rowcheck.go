// Package rowcheck tests lanegen's kernels against their scalar bodies.
// A package calls Kernels for its row kernels and Lanes for its lane
// kernels from its tests.
package rowcheck

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// Kernels runs each kernel, a pair of a generated <name>Row wrapper
// and the scalar <name>, once through the wrapper and once point by
// point through the scalar body, on rows of every length from 0 to 9
// (so every group count and tail length), filled with random values
// with zeros of both signs among them, and fails unless every row is
// equal afterwards, bit for bit. It does so for each of modes, set
// through setAVX: the path the wrappers take, AVX or portable.
func Kernels(t *testing.T, setAVX func(bool), modes []bool, kernels [][2]any) {
	t.Helper()
	fill := filler(39)
	for _, avx := range modes {
		setAVX(avx)
		for _, k := range kernels {
			row, scalar := reflect.ValueOf(k[0]), reflect.ValueOf(k[1])
			name := funcName(scalar)
			st := scalar.Type()
			for count := 0; count < 10; count++ {
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
							if math.Float64bits(got[r][e]) != math.Float64bits(want[r][e]) {
								t.Fatalf("%s avx=%v length %d: row %d [%d] = %v (%#x), scalar %v (%#x)", name, avx, count, r, e,
									got[r][e], math.Float64bits(got[r][e]), want[r][e], math.Float64bits(want[r][e]))
							}
						}
					}
				}
			}
		}
	}
}

// Lanes runs each kernel, a pair of a generated <name>4 wrapper and the
// scalar <name>, on random arrays of four lanes, once through the
// wrapper and once lane by lane through the scalar body, and fails
// unless every lane of every array is equal afterwards, bit for bit.
// About one value in four is a zero, of either sign, so over the trials
// every lane meets zeros, the scalars as well. It does so for each of
// modes, set through setAVX: the path the wrappers take, AVX or
// portable.
func Lanes(t *testing.T, setAVX func(bool), modes []bool, kernels [][2]any) {
	t.Helper()
	fill := filler(41)
	for _, avx := range modes {
		setAVX(avx)
		for _, k := range kernels {
			wrapper, scalar := reflect.ValueOf(k[0]), reflect.ValueOf(k[1])
			name := funcName(scalar)
			wt, st := wrapper.Type(), scalar.Type()
			for trial := 0; trial < 200; trial++ {
				args := make([]reflect.Value, wt.NumIn())
				want := make([]reflect.Value, len(args))
				for a := range args {
					if wt.In(a).Kind() == reflect.Float64 {
						args[a] = reflect.ValueOf(fill())
						continue
					}
					args[a] = reflect.New(wt.In(a).Elem())
					lanes := args[a].Elem()
					for e := 0; e < lanes.Len(); e++ {
						for q := 0; q < 4; q++ {
							lanes.Index(e).Index(q).SetFloat(fill())
						}
					}
					want[a] = reflect.New(wt.In(a).Elem())
					want[a].Elem().Set(lanes)
				}
				wrapper.Call(args)
				for q := 0; q < 4; q++ {
					sargs := make([]reflect.Value, len(args))
					for a := range args {
						if !want[a].IsValid() {
							sargs[a] = args[a]
							continue
						}
						sargs[a] = reflect.New(st.In(a).Elem())
						for e := 0; e < sargs[a].Elem().Len(); e++ {
							sargs[a].Elem().Index(e).Set(want[a].Elem().Index(e).Index(q))
						}
					}
					scalar.Call(sargs)
					for a := range args {
						if !want[a].IsValid() {
							continue
						}
						for e := 0; e < sargs[a].Elem().Len(); e++ {
							g := args[a].Elem().Index(e).Index(q).Float()
							w := sargs[a].Elem().Index(e).Float()
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("%s avx=%v: argument %d [%d] lane %d = %v (%#x), scalar %v (%#x)", name, avx, a, e, q,
									g, math.Float64bits(g), w, math.Float64bits(w))
							}
						}
					}
				}
			}
		}
	}
}

// Lane returns lane q of a lane-form array.
func Lane(a [][4]float64, q int) []float64 {
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

func funcName(f reflect.Value) string {
	name := runtime.FuncForPC(f.Pointer()).Name()
	return name[strings.LastIndex(name, ".")+1:]
}
