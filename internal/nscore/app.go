package nscore

import (
	"fmt"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/simd"
	"npbgo/internal/team"
	"npbgo/internal/verify"
)

// The main program BT and SP share: bt.f and sp.f initialize, run
// exact_rhs and one feed-through ADI step, initialize again, time niter
// steps and verify xcr = ||rhs||/dt and xce against the class's norms,
// in the same text. App runs it, and the line queue of the three
// sweeps with it; a Code brings what differs: the class table, the flop
// count, the reference norms, and the solve of eight queued lines.

// Class is one problem class of BT or SP.
type Class struct {
	Size  int     // grid points per side
	Niter int     // time steps
	Dt    float64 // time step size
}

// Norms are the verification norms of one class: xcr, the residual
// norms over dt, and xce, the solution error norms.
type Norms struct {
	XCR, XCE [5]float64
}

// Code is what BT or SP brings to the main program.
type Code struct {
	Name    string         // "bt" or "sp", prefixing NewApp's errors
	Classes map[byte]Class // the classes the code runs
	// Norms holds the reference norms of the verified classes; a class
	// without runs unverified (verify.TierNone).
	Norms map[byte]Norms
	Speed bool // whether the field carries the sound speed (SP's solver reads it)
	// StepFlops is the NPB operation count of one time step on an n^3
	// grid.
	StepFlops func(n float64) float64
}

// Lines is one worker's queue of up to eight lines of one direction,
// the lines a code's group solve takes at once: N lines queued, the
// scalar-grid offset of each one's first point, and the direction's
// Stride between a line's points (1, n or n²), the group the movers of
// internal/simd carry between the field's rows and lane form.
type Lines = simd.Lines

// App is a configured BT or SP main program with its field allocated.
// bt.Benchmark and sp.Benchmark embed it.
type App struct {
	Class byte
	N     int // grid points per side
	C     Consts
	F     *Field

	code           *Code
	niter, threads int
	env            kernel.Env
	// solve is the code's group solve: it solves worker id's queued
	// lines q in direction d (0 xi, 1 eta, 2 zeta) and writes their
	// solutions back to Rhs.
	solve func(id, d int, q Lines)

	// Steady-state machinery: the sweep bodies below are built once by
	// NewApp and reused every ADI step (a closure literal at the call
	// site would allocate per invocation), keeping the timed loop free
	// of heap allocation (enforced by internal/allocgate). tm stages the
	// current sweep's team.
	tm     *team.Team
	bodies [3]func(id int)
}

// NewApp configures code's main program for class and threads and
// allocates its field; solve is the code's group solve, which App's
// sweeps call with every eight queued lines and a short remainder.
// With env.Timers set, the ADI phases (rhs, the three solves, add) are
// profiled, as the paper does when analyzing where the translated code
// spends its time.
func NewApp(code *Code, class byte, threads int, env kernel.Env, solve func(id, d int, q Lines)) (*App, error) {
	spec, ok := code.Classes[class]
	if !ok {
		return nil, fmt.Errorf("%s: unknown class %q", code.Name, string(class))
	}
	if threads < 1 {
		return nil, fmt.Errorf("%s: threads %d < 1", code.Name, threads)
	}
	a := &App{Class: class, N: spec.Size, code: code, niter: spec.Niter, threads: threads, env: env, solve: solve}
	a.C = SetConstants(spec.Size, spec.Dt)
	a.F = NewField(spec.Size, code.Speed)
	a.buildBodies()
	return a, nil
}

// buildBodies constructs the three sweep bodies once. Each is a
// func(id int) handed straight to Team.Run: the worker takes the chunks
// of the team's loop iterator (honoring the configured schedule), queues
// the starts of their lines and hands every eight, and the short
// remainder, to the code's solve. A group may span planes and chunks.
func (a *App) buildBodies() {
	n := a.N
	// xi lines along i, k planes split; eta lines along j, k planes
	// split; zeta lines along k, j rows split. line is the stride along
	// a line, inner that between the lines of a plane, outer that of the
	// split index.
	strides := [3]struct{ line, inner, outer int }{{1, n, n * n}, {n, 1, n * n}, {n * n, 1, n}}
	for d, s := range strides {
		a.bodies[d] = func(id int) {
			q := Lines{Stride: s.line}
			for it := a.tm.Loop(id, 1, n-1); it.Next(); {
				for o := it.Lo; o < it.Hi; o++ {
					for i := 1; i < n-1; i++ {
						// q.N < 8 here: the mask only spares a bounds check.
						q.Start[q.N&7] = o*s.outer + i*s.inner
						q.N++
						if q.N == 8 {
							a.solve(id, d, q)
							q.N = 0
						}
					}
				}
			}
			if q.N > 0 {
				a.solve(id, d, q)
			}
		}
	}
}

// Sweep solves every line of direction d (0 xi, 1 eta, 2 zeta) on tm,
// the lines split over its workers.
func (a *App) Sweep(tm *team.Team, d int) {
	a.tm = tm
	tm.Run(a.bodies[d])
}

// Iter advances one steady-state time step on tm, whose Size must equal
// the thread count the App was built with, charging each phase to the
// profile timers when enabled. Every region body is prebuilt, so the
// step performs no heap allocation (enforced at a zero budget by
// internal/allocgate).
func (a *App) Iter(tm *team.Team) {
	a.env.Start("rhs")
	a.F.ComputeRHS(&a.C, tm)
	a.env.Stop("rhs")
	a.env.Start("xsolve")
	a.Sweep(tm, 0)
	a.env.Stop("xsolve")
	a.env.Start("ysolve")
	a.Sweep(tm, 1)
	a.env.Stop("ysolve")
	a.env.Start("zsolve")
	a.Sweep(tm, 2)
	a.env.Stop("zsolve")
	a.env.Start("add")
	a.F.Add(tm)
	a.env.Stop("add")
}

// Result reports one BT or SP run.
type Result struct {
	Norms // the run's computed norms
	kernel.Outcome
}

// Run is RunResult reduced to the shared outcome (kernel.Kernel).
func (a *App) Run() kernel.Outcome { return a.RunResult().Outcome }

// RunResult executes the main program: initialization, one untimed
// feed-through step and re-initialization, then niter timed ADI steps
// and verification.
func (a *App) RunResult() Result {
	tm, done := a.env.Team(a.threads)
	defer done()

	a.F.Initialize(&a.C)
	a.F.ExactRHS(&a.C)

	// One feed-through step, then reset, as the Fortran main does.
	a.Iter(tm)
	a.F.Initialize(&a.C)

	start := time.Now()
	for step := 1; step <= a.niter && !tm.Cancelled(); step++ {
		a.Iter(tm)
	}
	elapsed := time.Since(start)

	// Verification values: xcr = ||rhs||/dt from a fresh rhs evaluation,
	// xce = solution error (verify.f).
	var res Result
	a.F.ComputeRHS(&a.C, tm)
	res.XCR = a.F.RHSNorm()
	for m := range res.XCR {
		res.XCR[m] /= a.C.Dt
	}
	res.XCE = a.F.ErrorNorm(&a.C)

	rep := &verify.Report{Tier: verify.TierOfficial}
	if ref, ok := a.code.Norms[a.Class]; ok {
		for m := range ref.XCR {
			rep.Add(fmt.Sprintf("xcr(%d)", m+1), res.XCR[m], ref.XCR[m])
		}
		for m := range ref.XCE {
			rep.Add(fmt.Sprintf("xce(%d)", m+1), res.XCE[m], ref.XCE[m])
		}
	} else {
		rep.Tier = verify.TierNone
	}
	flops := float64(a.niter) * a.code.StepFlops(float64(a.N))
	res.Outcome = a.env.Outcome(elapsed, flops*1e-6, rep)
	return res
}
