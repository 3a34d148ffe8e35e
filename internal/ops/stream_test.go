package ops

import (
	"fmt"
	"sync"
	"testing"
)

var streamSink float64

// BenchmarkStreamRead is the first half of the roofline probe (ROADMAP
// item 1): the rate at which this host delivers cache lines, read one
// float64 per 64-byte line so the loop costs nothing beside the miss. A
// 16 MB array lies past L2 (class W's matrices and grids are 8-17 MB), a
// 1 MB one inside it; one worker and two, each on its own half. A kernel
// phase is bound by memory when its bytes per second approach the 16 MB
// figure, and is not when the same loop takes as long per element on
// data that fits in L2.
func BenchmarkStreamRead(b *testing.B) {
	for _, mb := range []int{16, 1} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%dMB/w%d", mb, workers), func(b *testing.B) {
				x := make([]float64, mb<<20/8)
				for i := range x {
					x[i] = 1
				}
				sums := make([][8]float64, workers) // a line each
				b.SetBytes(int64(mb << 20))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							part := x[w*len(x)/workers : (w+1)*len(x)/workers]
							s0, s1 := 0.0, 0.0
							for j := 0; j+16 <= len(part); j += 16 {
								s0 += part[j]
								s1 += part[j+8]
							}
							sums[w][0] = s0 + s1
						}(w)
					}
					wg.Wait()
				}
				streamSink = sums[0][0]
			})
		}
	}
}
