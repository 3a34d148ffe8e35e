// Package perfstat explains one bench record of internal/report: per
// (benchmark, class) it derives speedup S(n) and efficiency E(n) over
// the thread sweep, the Karp–Flatt experimentally determined serial
// fraction (CACM 1990), which tells an Amdahl ceiling from overhead
// that grows with p, and rule-based anomaly flags that join the obs
// counters to the source paper's §5 diagnoses: CG-style load
// imbalance, LU-pipeline-style barrier synchronization cost and
// IS-style too-little-work-per-thread — the analysis the paper performs
// by hand in §5, as code.
//
// A cell's time is the median of its repeat samples: run times are not
// normally distributed, so the summary is an order statistic, not a
// mean or a best-of-N (Hoefler & Belli, SC'15). Judging one record
// against another is not this package's job; benchmark/ does that.
package perfstat

import (
	"math"
	"sort"

	"npbgo/internal/report"
)

// medianOf is the cell's median elapsed time: over the retained repeat
// samples, or the headline for records written before repeats were
// kept. The samples are sorted in a copy, so the record is left as it
// was read.
func medianOf(c report.CellMetrics) float64 {
	if len(c.Samples) == 0 {
		return max(c.Elapsed, 0)
	}
	sorted := append([]float64(nil), c.Samples...)
	sort.Float64s(sorted)
	return quantile(sorted, 0.5)
}

// quantile returns the q-quantile of sorted data by linear
// interpolation between closest ranks (the R-7 rule both NumPy and Go
// benchstat use).
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}
