// Package rowcheck tests lanegen's row kernels against their scalar
// bodies. A package with row kernels calls Kernels from its tests.
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
	rng := rand.New(rand.NewSource(39))
	fill := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		}
		return rng.Float64() - 0.5
	}
	for _, avx := range modes {
		setAVX(avx)
		for _, k := range kernels {
			row, scalar := reflect.ValueOf(k[0]), reflect.ValueOf(k[1])
			name := runtime.FuncForPC(scalar.Pointer()).Name()
			name = name[strings.LastIndex(name, ".")+1:]
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
