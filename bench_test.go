// Benchmark harness: one testing.B benchmark per table of the paper.
//
//	Table 0 (§3 layout study)  BenchmarkTable0ArrayLayout
//	Table 1 (basic CFD ops)    BenchmarkTable1BasicOps
//	Tables 2-6 (suite sweep)   BenchmarkTable2to6Suite
//	Table 7 (Java Grande LU)   BenchmarkTable7JavaGrandeLU
//
// Each sub-benchmark reports seconds per operation, the unit of the
// paper's tables. The suite benchmarks default to class S so that
// `go test -bench .` finishes quickly; set NPB_CLASS=W or A (and give
// -timeout accordingly) to regenerate the paper-scale numbers, or use
// cmd/npbsuite, which prints the assembled tables directly.
package npbgo_test

import (
	"fmt"
	"os"
	"testing"

	"npbgo"
	"npbgo/internal/cg"
	"npbgo/internal/grid"
	"npbgo/internal/jgf"
	"npbgo/internal/kernel"
	"npbgo/internal/ops"
	"npbgo/internal/team"
)

// suiteClass returns the problem class for the suite benchmarks.
func suiteClass() byte {
	if c := os.Getenv("NPB_CLASS"); len(c) == 1 {
		return c[0]
	}
	return 'S'
}

var threadCounts = []int{1, 2, 4}

// BenchmarkTable0ArrayLayout reproduces the §3 translation study: the
// same stencil kernels on linearized versus dimension-preserving
// arrays. The paper measured the nested form "times slower" and chose
// linearized arrays for the whole suite.
func BenchmarkTable0ArrayLayout(b *testing.B) {
	w := ops.NewWorkload(grid.Dim3{N1: 81, N2: 81, N3: 100})
	cases := []struct {
		name string
		fn   func()
	}{
		{"Assignment/linearized", w.Assignment},
		{"Assignment/nested", w.AssignmentNested},
		{"FirstOrder/linearized", w.FirstOrder},
		{"FirstOrder/nested", w.FirstOrderNested},
		{"SecondOrder/linearized", w.SecondOrder},
		{"SecondOrder/nested", w.SecondOrderNested},
		{"MatVec5x5/linearized", w.MatVec},
		{"MatVec5x5/nested", w.MatVecNested},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}
	var sink float64
	b.Run("ReductionSum/linearized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += w.ReduceSum()
		}
	})
	b.Run("ReductionSum/nested", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += w.ReduceSumNested()
		}
	})
	_ = sink
}

// BenchmarkTable1BasicOps reproduces Table 1: the five basic CFD
// operations on the 81x81x100 grid, serial and across thread counts.
// (The paper's Assignment row times 10 iterations; here one iteration
// is one op, so multiply by 10 to compare.)
func BenchmarkTable1BasicOps(b *testing.B) {
	w := ops.NewWorkload(grid.Dim3{N1: 81, N2: 81, N3: 100})
	var sink float64
	serial := []struct {
		name string
		fn   func()
	}{
		{"Assignment", w.Assignment},
		{"FirstOrderStencil", w.FirstOrder},
		{"SecondOrderStencil", w.SecondOrder},
		{"MatVec5x5", w.MatVec},
		{"ReductionSum", func() { sink += w.ReduceSum() }},
	}
	for _, c := range serial {
		b.Run(c.name+"/serial", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.fn()
			}
		})
	}
	parallel := []struct {
		name string
		fn   func(tm *team.Team)
	}{
		{"Assignment", w.AssignmentParallel},
		{"FirstOrderStencil", w.FirstOrderParallel},
		{"SecondOrderStencil", w.SecondOrderParallel},
		{"MatVec5x5", w.MatVecParallel},
		{"ReductionSum", func(tm *team.Team) { sink += w.ReduceSumParallel(tm) }},
	}
	for _, c := range parallel {
		for _, n := range threadCounts {
			b.Run(fmt.Sprintf("%s/threads=%d", c.name, n), func(b *testing.B) {
				tm := team.New(n)
				defer tm.Close()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.fn(tm)
				}
			})
		}
	}
	_ = sink
}

// BenchmarkTable2to6Suite reproduces the benchmark rows of Tables 2-6:
// every NPB benchmark, serial (threads=1, regions inline) and across
// thread counts. One iteration is one complete verified benchmark run.
func BenchmarkTable2to6Suite(b *testing.B) {
	class := suiteClass()
	for _, bench := range npbgo.Benchmarks() {
		for _, n := range append([]int{1}, threadCounts[1:]...) {
			b.Run(fmt.Sprintf("%s.%c/threads=%d", bench, class, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := npbgo.Run(npbgo.Config{Benchmark: bench, Class: class, Threads: n})
					if err != nil {
						b.Fatal(err)
					}
					if res.Failed {
						b.Fatalf("verification failed:\n%s", res.Detail)
					}
				}
			})
		}
	}
}

// BenchmarkTable7JavaGrandeLU reproduces Table 7: the Java Grande
// lufact LU (BLAS1, poor cache reuse) against the blocked DGETRF-style
// LU (matrix-multiply update) on classes A and B (C via NPB_CLASS=C).
func BenchmarkTable7JavaGrandeLU(b *testing.B) {
	classes := []byte{'A', 'B'}
	if suiteClass() == 'C' {
		classes = append(classes, 'C')
	}
	for _, cl := range classes {
		b.Run(fmt.Sprintf("lufact/class=%c", cl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := jgf.RunLufact(cl, 0)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatalf("residual %v", res.Residual)
				}
			}
		})
		b.Run(fmt.Sprintf("blocked/class=%c", cl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := jgf.RunBlocked(cl, 0, 32)
				if err != nil {
					b.Fatal(err)
				}
				if !res.OK {
					b.Fatalf("residual %v", res.Residual)
				}
			}
		})
	}
}

// BenchmarkAblationCGWarmup measures the §5.2 warmup fix: on the
// paper's SGI the warmup load was what made the JVM place CG's threads
// on distinct CPUs; the benchmark exposes its pure overhead cost here.
func BenchmarkAblationCGWarmup(b *testing.B) {
	for _, warm := range []bool{false, true} {
		name := "off"
		if warm {
			name = "on"
		}
		b.Run("warmup="+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2, Warmup: warm})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failed {
					b.Fatal("verification failed")
				}
			}
		})
	}
}

// BenchmarkAblationCGBallast reproduces the other §5.2 experiment: an
// artificial increase of CG's memory use ("also resulted in a drop of
// scalability" in the paper). Each worker streams the given ballast
// once per outer iteration, evicting the solver's working set.
func BenchmarkAblationCGBallast(b *testing.B) {
	for _, mb := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("ballastMB=%d", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bench, err := cg.New('S', 2, kernel.Env{})
				if err != nil {
					b.Fatal(err)
				}
				if mb > 0 {
					bench.Ballast(mb << 20)
				}
				if res := bench.Run(); !res.Verify.Passed() {
					b.Fatal("verification failed")
				}
			}
		})
	}
}
