package fault

import "sort"

// knownSites is the registry of every injection site compiled into the
// suite, shared by `npbsuite -list-faults` and the robustness docs.
//
// Adding a hook: call fault.Maybe/Corrupted/CorruptFloat with a new
// "<package>.<event>" literal, list it here, and add a test that injects
// at it. A key that names no site never fires, so that test is what
// catches a typo on either side.
var knownSites = [...]string{
	"cg.iter",      // cg: top of each timed outer iteration
	"cg.verify",    // cg: zeta verification value
	"ep.batch",     // ep: per-worker batch loop
	"ep.verify",    // ep: sum verification values
	"harness.cell", // harness: each (benchmark, threads) cell run
	"lu.sweep",     // lu: each worker at each plane of the pipelined lower sweep
	"ops.iter",     // ops: top of each timed invocation of a Table 0/1 operation
	"team.region",  // team: entry of every parallel region body
}

// Sites returns the known injection site keys in sorted order. The
// sort is applied here rather than trusted from the declaration, so
// consumers that must be deterministic and diffable (`npbsuite
// -list-faults` in CI logs) cannot be broken by an unsorted insertion
// above.
func Sites() []string {
	out := make([]string, len(knownSites))
	copy(out, knownSites[:])
	sort.Strings(out)
	return out
}
