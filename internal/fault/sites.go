package fault

import "sort"

// knownSites is the registry of every injection site compiled into the
// suite. It is the single source of truth shared by the npblint
// faultsite analyzer (which rejects site-key literals not listed
// here), `npbsuite -list-faults`, and the robustness docs.
//
// Adding a hook: call fault.Maybe/Corrupted/CorruptFloat with a new
// "<package>.<event>" literal AND list it here — `make lint` fails
// until both sides agree.
var knownSites = [...]string{
	"cg.iter",      // cg: top of each timed outer iteration
	"cg.verify",    // cg: zeta verification value
	"ep.batch",     // ep: per-worker batch loop
	"ep.verify",    // ep: sum verification values
	"harness.cell", // harness: each (benchmark, threads) cell run
	"lu.sweep",     // lu: each worker at each plane of the pipelined lower sweep
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
