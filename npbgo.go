// Package npbgo is a Go implementation of the NAS Parallel Benchmarks
// (NPB) in the style studied by Frumkin, Schultz, Jin and Yan in
// "Performance and Scalability of the NAS Parallel Benchmarks in Java":
// a literal translation of the NPB2.3-serial suite onto linearized
// arrays, parallelized with a master-worker team of goroutines playing
// the role of the paper's Java threads.
//
// The suite contains the three simulated CFD applications BT, SP and LU
// and the five kernels FT, MG, CG, IS and EP, each configurable to the
// standard problem classes S, W, A, B and C and any number of worker
// threads. Runs end with NPB verification where reference values exist.
//
//	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 4})
package npbgo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"npbgo/internal/kernel"
	"npbgo/internal/suite"
	"npbgo/internal/team"
	"npbgo/internal/timer"
	"npbgo/internal/trace"
	"npbgo/internal/verify"
)

// Benchmark names one NPB benchmark.
type Benchmark string

// The eight NPB benchmarks.
const (
	BT Benchmark = "BT" // block-tridiagonal ADI pseudo-application
	SP Benchmark = "SP" // scalar-pentadiagonal pseudo-application
	LU Benchmark = "LU" // SSOR pseudo-application
	FT Benchmark = "FT" // 3-D FFT PDE kernel
	MG Benchmark = "MG" // V-cycle multigrid kernel
	CG Benchmark = "CG" // conjugate-gradient kernel
	IS Benchmark = "IS" // integer-sort kernel
	EP Benchmark = "EP" // embarrassingly-parallel kernel
)

// Benchmarks returns the suite in the paper's table order (BT, SP, LU,
// FT, IS, CG, MG) with EP appended: the eight, never the paper-table
// entries Config.Benchmark also takes.
func Benchmarks() []Benchmark {
	out := make([]Benchmark, len(suite.Rows))
	for i, r := range suite.Rows {
		out[i] = Benchmark(r.Name)
	}
	return out
}

// Classes returns the problem classes in increasing size order.
func Classes() []byte { return []byte{'S', 'W', 'A', 'B', 'C'} }

// Config selects a benchmark run.
type Config struct {
	// Benchmark is one of the eight, or an entry of the paper's other
	// tables, run the same way: Table 1's operations on the 81x81x100
	// grid at class A (ASSIGN, STENCIL1, STENCIL2, MATVEC, REDSUM; serial
	// at one thread), Table 0's nested forms (the same names with
	// _NESTED; one thread) and Table 7's LU (LUFACT, DGETRF; classes A,
	// B and C, one thread).
	Benchmark Benchmark
	Class     byte // 'S', 'W', 'A', 'B' or 'C'
	Threads   int  // worker count; 1 runs the regions inline (serial)
	// Warmup gives every worker a large busy-work load before the timed
	// section, reproducing the CG thread-placement fix of the paper's
	// §5.2. It currently affects CG only (where the paper applied it).
	Warmup bool
	// Profile enables per-phase timing; the profile text lands in
	// Result.Profile.
	Profile bool
	// Obs collects runtime metrics for the run: per-worker busy and
	// barrier-wait times, region/cancellation/panic counts and the
	// worker-imbalance ratio land in Result.Obs. Obs implies Profile.
	Obs bool
	// Trace records the run with the Go execution tracer: the scheduler's
	// view of every worker goroutine, annotated with the run's structure
	// as one runtime/trace task named "<BENCH>.<class>.t<threads>" —
	// regions and each worker's share of them, barrier and pipeline
	// waits, phases, chunks, cancellations and panics (internal/trace).
	// The runtime tracer is started around the run and writes into
	// memory; traced runs take turns, because the tracer is
	// process-wide. If a tracer is already running (go test -trace), the
	// run only annotates it. The trace lands in Result.Trace.
	Trace bool
	// Schedule selects the team's loop schedule: "static" (default),
	// "dynamic", "guided" or "stealing". Static is the paper's block
	// distribution; the others redistribute loop chunks at runtime
	// without changing any numerical result. Empty means static.
	Schedule string
}

// Result reports one benchmark run.
type Result struct {
	Benchmark Benchmark
	Class     byte
	Threads   int
	Elapsed   time.Duration
	Mops      float64 // NPB Mop/s figure of merit
	Verified  bool    // verification compared and passed
	Failed    bool    // verification compared and mismatched
	Tier      string  // "official", "golden" or "none"
	Detail    string  // the full verification printout
	Profile   string  // per-phase timing profile, if requested/available
	// Phases is the structured form of Profile (seconds and lap counts
	// per phase), nil unless Profile/Obs was requested.
	Phases []timer.Phase
	// Obs holds the run's per-worker runtime metrics, nil unless
	// Config.Obs was set.
	Obs *team.Stats
	// Trace holds the run's tracer, nil unless Config.Trace was set:
	// Trace.Data is the execution trace, for `go tool trace` and
	// `npbperf trace` (nil when the run only annotated a tracer already
	// running), and Trace.Events the number of annotations.
	Trace *trace.Tracer
}

func fromReport(r *Result, rep *verify.Report) {
	r.Verified = rep.Passed()
	r.Failed = rep.Failed()
	r.Tier = rep.Tier.String()
	r.Detail = rep.String()
}

// RunError is the structured failure of a benchmark run: it carries the
// benchmark/class/threads context of the failing cell plus a Kind
// classifying the failure, and wraps the underlying cause (for example a
// *team.PanicError or a context error) for errors.Is/As.
type RunError struct {
	Benchmark Benchmark
	Class     byte
	Threads   int
	Kind      string // one of the Err* kind constants
	Cause     error
}

// RunError kinds.
const (
	ErrConfig       = "config"       // invalid Config (bad class, thread count, benchmark)
	ErrPanic        = "panic"        // a panic (e.g. on a team worker) was recovered
	ErrCancelled    = "cancelled"    // the context was cancelled or its deadline passed
	ErrVerification = "verification" // the run completed but NPB verification mismatched
)

func (e *RunError) Error() string {
	return fmt.Sprintf("npbgo: %s.%c threads=%d: %s: %v",
		e.Benchmark, e.Class, e.Threads, e.Kind, e.Cause)
}

func (e *RunError) Unwrap() error { return e.Cause }

// Run executes one benchmark run as configured. It is
// RunContext(context.Background(), cfg).
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

func validClass(c byte) bool {
	for _, k := range Classes() {
		if c == k {
			return true
		}
	}
	return false
}

// RunContext executes one benchmark run under a context. The
// configuration is validated up front, worker panics are isolated and
// returned (never propagated — the process survives a crashing region),
// and every benchmark stops within roughly one outer iteration of ctx
// expiring. All failures come back as a *RunError identifying the cell
// and the failure kind.
//
// On cancellation the returned Result holds whatever partial timing was
// accumulated; it is not meaningful for reporting.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Threads == 0 {
		cfg.Threads = 1
	}
	if cfg.Class == 0 {
		cfg.Class = 'S'
	}
	res := Result{Benchmark: cfg.Benchmark, Class: cfg.Class, Threads: cfg.Threads}
	fail := func(kind string, cause error) (Result, error) {
		return res, &RunError{Benchmark: cfg.Benchmark, Class: cfg.Class,
			Threads: cfg.Threads, Kind: kind, Cause: cause}
	}
	if cfg.Threads < 1 {
		return fail(ErrConfig, fmt.Errorf("threads %d < 1", cfg.Threads))
	}
	if !validClass(cfg.Class) {
		return fail(ErrConfig, fmt.Errorf("unknown class %q (want S, W, A, B or C)", string(cfg.Class)))
	}
	row, ok := suite.Lookup(string(cfg.Benchmark))
	if !ok {
		return fail(ErrConfig, fmt.Errorf("unknown benchmark %q", cfg.Benchmark))
	}
	sched, err := team.ParseSchedule(cfg.Schedule)
	if err != nil {
		return fail(ErrConfig, err)
	}
	if err := ctx.Err(); err != nil {
		return fail(ErrCancelled, err)
	}
	env := kernel.Env{Schedule: sched, Warmup: cfg.Warmup}
	if cfg.Profile || cfg.Obs {
		env.Timers = timer.NewConcurrentSet()
	}
	var tr *trace.Tracer
	if cfg.Trace {
		// Stopped after the run's team has joined: the deferred call
		// runs after the ones below.
		tr = trace.New(ctx, fmt.Sprintf("%s.%c.t%d", cfg.Benchmark, cfg.Class, cfg.Threads), cfg.Threads)
		defer tr.Stop()
		res.Trace = tr
	}
	env.Ctx = ctx
	if cfg.Obs || tr != nil {
		env.Probe = team.NewProbe(cfg.Threads, tr)
	}
	err, panicked := runBenchmark(row, cfg, env, &res)
	// The benchmark's team has joined (or the panic was recovered), so
	// the probe is quiescent and safe to snapshot.
	if cfg.Obs {
		res.Obs = env.Probe.Snapshot()
	}
	if panicked {
		return fail(ErrPanic, err)
	}
	if err != nil {
		return fail(ErrConfig, err)
	}
	if err := ctx.Err(); err != nil {
		return fail(ErrCancelled, err)
	}
	if res.Failed {
		return fail(ErrVerification, errors.New("verification mismatch (see Result.Detail)"))
	}
	return res, nil
}

// runBenchmark builds the row's benchmark for cfg and runs it under env
// with panic isolation: any panic escaping the run — a *team.PanicError
// re-raised by a crashed worker region, or a master-side panic — is
// recovered and returned with panicked = true.
func runBenchmark(row suite.Row, cfg Config, env kernel.Env, res *Result) (err error, panicked bool) {
	defer func() {
		if v := recover(); v != nil {
			panicked = true
			if pe, ok := v.(*team.PanicError); ok {
				err = pe
			} else {
				err = fmt.Errorf("panic: %v", v)
			}
		}
	}()
	k, err := row.New(cfg.Class, cfg.Threads, env)
	if err != nil {
		return err, false
	}
	out := k.Run()
	res.Elapsed, res.Mops = out.Elapsed, out.Mops
	if out.Timers != nil {
		res.Profile = out.Timers.String()
		res.Phases = out.Timers.Phases()
	}
	fromReport(res, out.Verify)
	return nil, false
}

// String formats a result as one NPB-style summary line.
func (r Result) String() string {
	status := "UNVERIFIED"
	if r.Verified {
		status = "VERIFIED(" + r.Tier + ")"
	} else if r.Failed {
		status = "VERIFICATION FAILED"
	}
	return fmt.Sprintf("%s.%c threads=%d time=%.3fs mop/s=%.2f %s",
		r.Benchmark, r.Class, r.Threads, r.Elapsed.Seconds(), r.Mops, status)
}
