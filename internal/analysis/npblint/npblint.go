// Package npblint assembles the analyzer suite enforced over this
// repository. cmd/npblint, the golden tests, and the repo-cleanliness
// test all draw from this one list.
package npblint

import (
	"npbgo/internal/analysis"
	"npbgo/internal/analysis/barrierbalance"
	"npbgo/internal/analysis/faultsite"
	"npbgo/internal/analysis/gridindex"
	"npbgo/internal/analysis/sharedwrite"
	"npbgo/internal/analysis/timerpair"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		barrierbalance.Analyzer,
		faultsite.Analyzer,
		gridindex.Analyzer,
		sharedwrite.Analyzer,
		timerpair.Analyzer,
	}
}
