// Package kernel states the contract the eight benchmark packages
// share, and nothing else: the paper's benchmark object owns its
// arrays, a master opens a thread team, runs niter timed steps and
// verifies (§2). Env is what a run is given, Outcome what it reports,
// Kernel what a benchmark must implement. The package imports no
// benchmark, so every benchmark can import it; the table of the eight
// lives in internal/suite.
package kernel

import (
	"context"
	"time"

	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/verify"
)

// Env is everything a run receives besides its class and thread count.
// The zero value is a plain run: not cancellable, static schedule, no
// instrument attached.
type Env struct {
	// Ctx cancels the run's team when done; the timed loops poll
	// Team.Cancelled and stop within about one step, leaving a partial,
	// unverifiable result. nil means not cancellable.
	Ctx context.Context
	// Schedule is the team's loop schedule. Static is the paper's block
	// distribution; every kernel accumulates reductions per static
	// block, so results are bit-identical under every schedule.
	Schedule team.Schedule
	// Probe is attached to the run's team: per-worker busy and wait
	// times, and the annotations of the tracer it holds. It should be
	// sized for the run's thread count; nil leaves every instrument off.
	Probe *team.Probe
	// Timers receives the per-phase profile; nil leaves profiling off.
	// It must be a concurrent set: EP charges it from its workers.
	Timers *timer.Set
	// Warmup gives every worker a large busy-work load before the timed
	// section (the paper's §5.2 thread-placement fix). CG only.
	Warmup bool
}

// Team opens the run's team of threads workers with the Env's
// instruments and schedule attached and its context watched, and
// returns it with the func that releases the watch and closes the team.
func (e *Env) Team(threads int) (*team.Team, func()) {
	tm := team.New(threads, team.WithProbe(e.Probe), team.WithSchedule(e.Schedule))
	stop := tm.WatchContext(e.Ctx)
	return tm, func() {
		stop()
		tm.Close()
	}
}

// Start begins charging the named master-side phase when profiling and
// opens it, through the probe, as a phase span on the trace's master
// track when tracing. It is the one bracket for both, so timer and trace
// phases always agree, and timerpair's check of Start/Stop pairing
// covers the trace.
func (e *Env) Start(name string) {
	if e.Timers != nil {
		e.Timers.Start(name)
	}
	if e.Probe != nil {
		e.Probe.BeginPhase(name)
	}
}

// Stop ends the current lap of the named phase and closes its span.
func (e *Env) Stop(name string) {
	if e.Probe != nil {
		e.Probe.EndPhase(name)
	}
	if e.Timers != nil {
		e.Timers.Stop(name)
	}
}

// Outcome is the part of a run's result every benchmark reports; each
// package's Result embeds it beside its own verification values.
type Outcome struct {
	Elapsed time.Duration  // wall time of the timed section
	Mops    float64        // NPB Mop/s figure of merit
	Verify  *verify.Report // verification outcome
	Timers  *timer.Set     // the Env's phase profile, nil unless profiling
}

// Outcome assembles a run's Outcome from the timed section's wall time,
// its operation count in millions and the verification report.
func (e *Env) Outcome(elapsed time.Duration, mops float64, rep *verify.Report) Outcome {
	out := Outcome{Elapsed: elapsed, Verify: rep, Timers: e.Timers}
	if s := elapsed.Seconds(); s > 0 {
		out.Mops = mops / s
	}
	return out
}

// Kernel is one configured benchmark instance with its arrays
// allocated.
type Kernel interface {
	// Run executes the benchmark — untimed set-up, the timed section on
	// a team opened from the Env, verification — and reports it.
	Run() Outcome
	// Iter runs one steady-state step of the timed section on tm, whose
	// Size must equal the thread count the instance was built with.
	// After the first call it performs no heap allocation, which
	// internal/allocgate measures.
	Iter(tm *team.Team)
}
