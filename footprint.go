package npbgo

import (
	"fmt"

	"npbgo/internal/suite"
)

// FootprintBytes estimates the working-set bytes the configured run
// will allocate, from each benchmark's own model of its dominant arrays
// (grids, matrices, per-thread scratch). The estimate exists so a sweep
// can refuse to launch a cell that cannot fit — the paper hit exactly
// this with FT on its memory-limited machines (§5), where the run died
// instead of being skipped with a reason. Estimates track the dominant
// allocations, not every slice; admission control should apply its own
// headroom on top.
//
// Zero-valued Class and Threads default like RunContext ('S', 1). An
// unknown benchmark or class is an error.
func (c Config) FootprintBytes() (uint64, error) {
	class := c.Class
	if class == 0 {
		class = 'S'
	}
	threads := c.Threads
	if threads < 1 {
		threads = 1
	}
	row, ok := suite.Lookup(string(c.Benchmark))
	if !ok {
		return 0, fmt.Errorf("npbgo: unknown benchmark %q", c.Benchmark)
	}
	return row.Footprint(class, threads)
}
