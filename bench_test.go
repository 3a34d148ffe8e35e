// Benchmark harness for the one ablation the paper's tables do not
// cover: the §5.2 CG warmup, on and off. Every paper table is an
// npbsuite sweep (make tables).
package npbgo_test

import (
	"testing"

	"npbgo"
)

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
