// Package fault is a deterministic fault-injection registry for testing
// the suite's recovery paths without flaky timing. The paper's long
// multi-machine sweeps failed in partial ways (CG thread placement, FT
// out-of-memory, LU pipeline stalls — §5); reproducing the *handling* of
// such failures requires injecting them on demand.
//
// Injection is site-keyed: code under test calls fault.Maybe("cg.iter")
// at named sites, and a test activates a plan of rules naming the sites
// and the actions (panic, delay, value corruption) to perform on chosen
// visits. Rules fire by deterministic hit counting — "panic on the 3rd
// visit to this site" — so a given plan always reproduces the same
// failure sequence.
//
// When no plan is active (the production configuration), every hook is a
// single atomic load and the registry costs nothing.
package fault

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an injection rule does when it fires.
type Kind int

const (
	// KindPanic makes Maybe panic with an InjectedPanic value.
	KindPanic Kind = iota
	// KindDelay makes Maybe sleep for the rule's Sleep duration.
	KindDelay
	// KindCorrupt makes Corrupted report true (and CorruptFloat perturb
	// its argument), simulating a wrong verification value.
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindDelay:
		return "delay"
	case KindCorrupt:
		return "corrupt"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Rule is one injection directive of a plan.
type Rule struct {
	Site  string        // site key the rule applies to, e.g. "cg.iter"
	Kind  Kind          // action to perform
	On    int           // 1-based hit index at which the rule becomes eligible; 0 means 1
	Count int           // firings allowed: 0 means once, negative means unlimited
	Sleep time.Duration // KindDelay: how long to sleep
}

// InjectedPanic is the value a KindPanic rule panics with, so tests can
// distinguish injected failures from real bugs.
type InjectedPanic struct {
	Site string // the site that fired
	Hit  int    // the hit index it fired on
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("fault: injected panic at %s (hit %d)", p.Site, p.Hit)
}

// ruleState is a Rule plus its firing bookkeeping.
type ruleState struct {
	Rule
	fired int
}

var (
	active atomic.Bool // fast path: no plan active

	mu   sync.Mutex
	plan []*ruleState
	hits map[string]int
)

// Activate installs a plan of rules and enables injection. It replaces
// any previous plan and resets all hit counters. Tests should pair it
// with a deferred Reset.
func Activate(rules ...Rule) {
	mu.Lock()
	defer mu.Unlock()
	plan = nil
	for _, r := range rules {
		if r.On < 1 {
			r.On = 1
		}
		if r.Count == 0 {
			r.Count = 1
		}
		plan = append(plan, &ruleState{Rule: r})
	}
	hits = make(map[string]int)
	active.Store(len(plan) > 0)
}

// Reset removes the active plan and disables injection.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	active.Store(false)
	plan = nil
	hits = nil
}

// Hits returns how many times the site has been visited under the
// active plan (0 when inactive), for test assertions.
func Hits(site string) int {
	mu.Lock()
	defer mu.Unlock()
	return hits[site]
}

// eligible reports whether the rule fires on hit h, and records the
// firing. Must be called with mu held.
func (st *ruleState) eligible(h int) bool {
	if h < st.On {
		return false
	}
	if st.Count > 0 && st.fired >= st.Count {
		return false
	}
	st.fired++
	return true
}

// Maybe is the injection hook for panic and delay rules. Each call
// counts one hit at site; if an active KindDelay rule fires the call
// sleeps, and if a KindPanic rule fires it panics with InjectedPanic.
// With no active plan it is a single atomic load.
func Maybe(site string) {
	if !active.Load() {
		return
	}
	var sleep time.Duration
	var pan *InjectedPanic
	mu.Lock()
	hits[site]++
	h := hits[site]
	for _, st := range plan {
		if st.Site != site || st.Kind == KindCorrupt {
			continue
		}
		if !st.eligible(h) {
			continue
		}
		if st.Kind == KindDelay {
			sleep += st.Sleep
		} else {
			pan = &InjectedPanic{Site: site, Hit: h}
		}
	}
	mu.Unlock()
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if pan != nil {
		panic(*pan)
	}
}

// Corrupted is the injection hook for KindCorrupt rules: it counts one
// hit at site and reports whether a corrupt rule fired.
func Corrupted(site string) bool {
	if !active.Load() {
		return false
	}
	mu.Lock()
	defer mu.Unlock()
	hits[site]++
	h := hits[site]
	fired := false
	for _, st := range plan {
		if st.Site != site || st.Kind != KindCorrupt {
			continue
		}
		if st.eligible(h) {
			fired = true
		}
	}
	return fired
}

// CorruptFloat returns v perturbed far outside any verification
// tolerance when a KindCorrupt rule fires at site, and v unchanged
// otherwise. Benchmarks pass their verification values through it.
func CorruptFloat(site string, v float64) float64 {
	if Corrupted(site) {
		return v + 1.0
	}
	return v
}
