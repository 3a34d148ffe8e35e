// Golden fixtures for the timerpair analyzer: phase timers started but
// never stopped. Never built by the go tool; type-checked by
// analysistest.
package fixture

import (
	"npbgo/internal/kernel"
	"npbgo/internal/timer"
)

// unmatched leaks the "rhs" phase: everything after Start is absorbed
// into it.
func unmatched(s *timer.Set) {
	s.Start("rhs") // want `no matching Stop`
	work()
}

// paired is the normal bracketed phase.
func paired(s *timer.Set) {
	s.Start("rhs")
	work()
	s.Stop("rhs")
}

// deferred stops via defer, which counts.
func deferred(s *timer.Set) {
	s.Start("total")
	defer s.Stop("total")
	work()
}

// dynamicName is a near miss: parameterized helpers pair at the call
// site, so non-literal names are skipped.
func dynamicName(s *timer.Set, name string) {
	s.Start(name)
	work()
}

// mismatched pairs the wrong names: "setup" never stops.
func mismatched(s *timer.Set) {
	s.Start("setup") // want `no matching Stop`
	work()
	s.Stop("teardown")
}

// throughEnv charges phases the way the benchmarks do; "fft" never
// stops.
func throughEnv(e *kernel.Env) {
	e.Start("evolve")
	work()
	e.Stop("evolve")
	e.Start("fft") // want `no matching Stop`
	work()
}

func work() {}
