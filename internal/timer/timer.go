// Package timer provides the NPB-style set of named stopwatch timers
// (t_total, t_rhs, ... in the Fortran sources). Each benchmark owns a Set
// and charges phases to slots; the harness reads the totals to build the
// per-phase profiles discussed in the paper's profiling sections.
//
// A Set created with NewSet is unsynchronized, matching the master-only
// charging the pseudo-applications do. NewConcurrentSet returns a
// thread-safe Set for per-worker phase capture (each worker charging
// its own names, e.g. timer.Worker("t_batch", id)) — the per-thread
// profiles the paper's anomaly hunts needed. Every completed lap is
// counted, so a phase profile reports both where time went and how many
// times each phase ran.
package timer

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Set is a collection of named stopwatch timers. The zero value is not
// ready to use; create one with NewSet or NewConcurrentSet.
type Set struct {
	mu      sync.Mutex
	locked  bool // concurrent mode: public methods take mu
	elapsed map[string]time.Duration
	started map[string]time.Time
	laps    map[string]int
	order   []string
}

// NewSet returns an empty, unsynchronized timer set for single-
// goroutine (master-side) phase charging.
func NewSet() *Set {
	return &Set{
		elapsed: make(map[string]time.Duration),
		started: make(map[string]time.Time),
		laps:    make(map[string]int),
	}
}

// NewConcurrentSet returns an empty timer set in thread-safe mode:
// every method is safe for concurrent use, so region bodies can charge
// per-worker phases (use distinct names per worker — two workers
// start/stopping the same name would overwrite each other's lap).
func NewConcurrentSet() *Set {
	s := NewSet()
	s.locked = true
	return s
}

// Worker derives the conventional per-worker phase name, "name/w<id>".
func Worker(name string, id int) string { return fmt.Sprintf("%s/w%d", name, id) }

func (s *Set) lock() {
	if s.locked {
		s.mu.Lock()
	}
}

func (s *Set) unlock() {
	if s.locked {
		s.mu.Unlock()
	}
}

// Start begins (or resumes) the named timer. Starting an already-running
// timer restarts its current lap without losing accumulated time.
func (s *Set) Start(name string) {
	s.lock()
	defer s.unlock()
	if _, seen := s.elapsed[name]; !seen {
		s.elapsed[name] = 0
		s.order = append(s.order, name)
	}
	s.started[name] = time.Now()
}

// Stop ends the current lap of the named timer, adding the lap to its
// accumulated total and incrementing its lap count. Stopping a timer
// that is not running is a no-op.
func (s *Set) Stop(name string) {
	s.lock()
	defer s.unlock()
	t0, ok := s.started[name]
	if !ok {
		return
	}
	delete(s.started, name)
	s.elapsed[name] += time.Since(t0)
	s.laps[name]++
}

// Elapsed reports the accumulated time of the named timer, excluding any
// lap still in progress.
func (s *Set) Elapsed(name string) time.Duration {
	s.lock()
	defer s.unlock()
	return s.elapsed[name]
}

// Seconds reports Elapsed in seconds, the unit the paper's tables use.
func (s *Set) Seconds(name string) float64 { return s.Elapsed(name).Seconds() }

// Phase is one structured profile entry: a timer's accumulated seconds
// and completed lap count.
type Phase struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Laps    int     `json:"laps"`
}

// Phases returns the structured profile in first-start order — the
// machine-readable form of String, consumed by the harness's JSONL
// metrics records.
func (s *Set) Phases() []Phase {
	s.lock()
	defer s.unlock()
	out := make([]Phase, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, Phase{Name: n, Seconds: s.elapsed[n].Seconds(), Laps: s.laps[n]})
	}
	return out
}

// String formats the set as an aligned profile table, phases in
// first-start order, suitable for the per-benchmark profiles.
func (s *Set) String() string {
	s.lock()
	defer s.unlock()
	var b strings.Builder
	width := 0
	for _, n := range s.order {
		if len(n) > width {
			width = len(n)
		}
	}
	for _, n := range s.order {
		fmt.Fprintf(&b, "%-*s %12.6f s  (%d laps)\n", width, n, s.elapsed[n].Seconds(), s.laps[n])
	}
	return b.String()
}
