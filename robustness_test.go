package npbgo_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/suite"
	"npbgo/internal/team"
)

// TestRunContextDeadlineCancelsCGMidIteration slows CG's outer loop
// with an injected per-iteration delay so a run would take seconds, and
// checks a short deadline stops it within roughly one iteration.
func TestRunContextDeadlineCancelsCGMidIteration(t *testing.T) {
	fault.Activate(fault.Rule{
		Site: "cg.iter", Kind: fault.KindDelay, Count: -1, Sleep: 50 * time.Millisecond,
	})
	defer fault.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2})
	took := time.Since(start)
	if err == nil {
		t.Fatal("deadline-bounded run reported success")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded in chain", err)
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled {
		t.Fatalf("err = %#v, want *RunError kind %q", err, npbgo.ErrCancelled)
	}
	if re.Benchmark != npbgo.CG || re.Class != 'S' || re.Threads != 2 {
		t.Fatalf("RunError cell context wrong: %+v", re)
	}
	// 15 iterations x 50ms of injected delay alone would be 750ms; a
	// prompt cancellation returns within a small multiple of one
	// iteration after the 120ms deadline.
	if took > 10*time.Second {
		t.Fatalf("run not cancelled promptly: took %v", took)
	}
}

// TestRunContextIsolatesInjectedWorkerPanic proves a worker panic in a
// real benchmark region surfaces as a typed error, not a crash.
func TestRunContextIsolatesInjectedWorkerPanic(t *testing.T) {
	fault.Activate(fault.Rule{Site: "team.region", Kind: fault.KindPanic, Count: -1})
	defer fault.Reset()
	_, err := npbgo.RunContext(context.Background(),
		npbgo.Config{Benchmark: npbgo.EP, Class: 'S', Threads: 4})
	if err == nil {
		t.Fatal("worker panic swallowed")
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrPanic {
		t.Fatalf("err = %v, want *RunError kind %q", err, npbgo.ErrPanic)
	}
	var pe *team.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("cause %v does not unwrap to *team.PanicError", re.Cause)
	}
	if _, ok := pe.Value.(fault.InjectedPanic); !ok {
		t.Fatalf("panic value %v (%T), want fault.InjectedPanic", pe.Value, pe.Value)
	}
}

// TestRunContextVerificationFailureIsTyped corrupts the verification
// value at each verify site (EP's sums, CG's zeta) and checks the
// mismatch comes back as a verification RunError alongside a Result
// that is failed and not verified: a run never reports verified when
// its value was corrupted.
func TestRunContextVerificationFailureIsTyped(t *testing.T) {
	for site, b := range map[string]npbgo.Benchmark{"ep.verify": npbgo.EP, "cg.verify": npbgo.CG} {
		t.Run(site, func(t *testing.T) {
			fault.Activate(fault.Rule{Site: site, Kind: fault.KindCorrupt, Count: -1})
			defer fault.Reset()
			res, err := npbgo.RunContext(context.Background(),
				npbgo.Config{Benchmark: b, Class: 'S', Threads: 2})
			if err == nil {
				t.Fatal("corrupted verification accepted")
			}
			var re *npbgo.RunError
			if !errors.As(err, &re) || re.Kind != npbgo.ErrVerification {
				t.Fatalf("err = %v, want kind %q", err, npbgo.ErrVerification)
			}
			if !res.Failed || res.Verified {
				t.Fatalf("Result.Failed = %v, Verified = %v on a corrupted value", res.Failed, res.Verified)
			}
		})
	}
}

// TestRunValidatesConfigUpFront: bad thread counts and classes must
// produce descriptive errors, not panics deep inside team.New.
func TestRunValidatesConfigUpFront(t *testing.T) {
	cases := []npbgo.Config{
		{Benchmark: npbgo.CG, Threads: -3},
		{Benchmark: npbgo.CG, Class: 'Z'},
		{Benchmark: "QQ"},
	}
	for _, cfg := range cases {
		res, err := npbgo.Run(cfg) // must not panic
		if err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
		var re *npbgo.RunError
		if !errors.As(err, &re) || re.Kind != npbgo.ErrConfig {
			t.Fatalf("config %+v: err = %v, want *RunError kind %q", cfg, err, npbgo.ErrConfig)
		}
		_ = res
	}
}

// TestRunContextNilAndDoneContexts covers the edges of context handling.
func TestRunContextNilAndDoneContexts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: npbgo.EP, Class: 'S'})
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	// A nil context behaves like Background.
	res, err := npbgo.RunContext(nil, npbgo.Config{Benchmark: npbgo.EP, Class: 'S'}) //nolint:staticcheck
	if err != nil || !res.Verified {
		t.Fatalf("nil ctx run failed: %v %+v", err, res)
	}
}

// TestRunContextDeadlineCancelsEveryBenchmark: every kernel opens its
// team through kernel.Env.Team, so all eight watch the context and poll
// for cancellation in their timed loops, at one thread (regions run
// inline) as at several. Each parallel region is slowed by 20 ms, which
// stretches the class-S runs to between a quarter of a second (IS) and
// many seconds (BT, SP); a 40 ms deadline must bring each back within
// about one step as a typed cancellation, with no goroutine left
// behind. The paper's Table 1 and Table 0 entries (suite.Paper's
// operations, class A) are held to the same, at the thread counts they
// accept: the nested forms at one thread only. Their serial forms run
// no region, but each run takes longer than the deadline. Their set-up
// allocates and fills class-A grids (MATVEC's ~200 MB) without polling,
// which under -race alone outlasts the 2 s bound, so -short leaves them
// out. Table 7's LU entries are not here: a factorization is one step,
// which nothing stops midway (DESIGN.md §12).
func TestRunContextDeadlineCancelsEveryBenchmark(t *testing.T) {
	fault.Activate(fault.Rule{Site: "team.region", Kind: fault.KindDelay, Count: -1, Sleep: 20 * time.Millisecond})
	defer fault.Reset()
	for _, b := range npbgo.Benchmarks() {
		t.Run(string(b), func(t *testing.T) { deadlineCancels(t, b, 'S', 1, 2, 3) })
	}
	for _, row := range suite.Paper {
		switch {
		case testing.Short() || row.Name == "LUFACT" || row.Name == "DGETRF":
		case strings.HasSuffix(row.Name, "_NESTED"):
			t.Run(row.Name, func(t *testing.T) { deadlineCancels(t, npbgo.Benchmark(row.Name), 'A', 1) })
		default:
			t.Run(row.Name, func(t *testing.T) { deadlineCancels(t, npbgo.Benchmark(row.Name), 'A', 1, 2, 3) })
		}
	}
}

// deadlineCancels runs one row of TestRunContextDeadlineCancelsEveryBenchmark
// at each thread count. CG marks each timed step at cg.iter, and the
// paper's operations each timed invocation at ops.iter: since a
// cancelled team skips its regions, a loop that stopped polling
// Cancelled() would still return in time, running its remaining steps
// as no-ops (or, in a serial form, its invocations inside the bound),
// so the steps are counted too. CG's deadline expires in its untimed
// first solve, so at most one CG step may start in the whole run. An
// operation's timed loop can start before the deadline, so its
// invocations are counted from the moment the team observes the
// deadline (cancelCount), and at most one may start after it.
func deadlineCancels(t *testing.T, b npbgo.Benchmark, class byte, threads ...int) {
	for _, n := range threads {
		t.Run(fmt.Sprintf("t%d", n), func(t *testing.T) {
			base := runtime.NumGoroutine()
			cgSteps := fault.Hits("cg.iter")
			deadline, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
			defer cancel()
			ctx := &cancelCount{Context: deadline, site: "ops.iter"}
			start := time.Now()
			_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: b, Class: class, Threads: n})
			if took := time.Since(start); took > 2*time.Second {
				t.Fatalf("returned %v after a 40ms deadline", took)
			}
			var re *npbgo.RunError
			if !errors.As(err, &re) || re.Kind != npbgo.ErrCancelled {
				t.Fatalf("err = %v, want *RunError kind %q", err, npbgo.ErrCancelled)
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded in chain", err)
			}
			if late := fault.Hits("cg.iter") - cgSteps; late > 1 {
				t.Fatalf("%d timed steps started after the deadline, want at most 1", late)
			}
			if late := fault.Hits("ops.iter") - ctx.hits; late > 1 {
				t.Fatalf("%d timed invocations started after the deadline, want at most 1", late)
			}
			noGoroutineLeft(t, base)
		})
	}
}

// cancelCount is a context that takes the hit count of a fault site
// where the run observes its end: a team watching it (Team.WatchContext)
// cancels itself with the context's Err, so the first Err that reports
// the end is read on the team's cancellation path, just before the team
// stops starting steps. A goroutine woken by Done would read the count
// on its own schedule instead, before or after the team's cancellation.
type cancelCount struct {
	context.Context
	site string
	once sync.Once
	hits int // site's hits at the first Err that reported the end
}

func (c *cancelCount) Err() error {
	err := c.Context.Err()
	if err != nil {
		c.once.Do(func() { c.hits = fault.Hits(c.site) })
	}
	return err
}

// TestEveryBenchmarkRecoversFromInjectedPanic is the panic-isolation
// conformance table: every suite code at class S × threads {1, 2, 3}
// ({1, 3} under -short), with a panic injected at team.region — which
// every region of every code passes, at one thread too — on hit 1 and
// on hit ⌈H/2⌉, H being the hits of a clean run of the same cell. Each
// case must come back as a typed ErrPanic carrying the injected value,
// within a wall deadline (a lost wake-up hangs instead), leave no
// goroutine behind, and be followed by a clean run of the cell that
// verifies (the runtime recovered).
func TestEveryBenchmarkRecoversFromInjectedPanic(t *testing.T) {
	threads := []int{1, 2, 3}
	if testing.Short() {
		threads = []int{1, 3} // the inline path and an odd team
	}
	for _, b := range npbgo.Benchmarks() {
		t.Run(string(b), func(t *testing.T) {
			for _, n := range threads {
				t.Run(fmt.Sprintf("t%d", n), func(t *testing.T) {
					recoversFromInjectedPanic(t, npbgo.Config{Benchmark: b, Class: 'S', Threads: n})
				})
			}
		})
	}
}

// recoversFromInjectedPanic runs one cell of the panic conformance
// table.
func recoversFromInjectedPanic(t *testing.T, cfg npbgo.Config) {
	const wall = 30 * time.Second
	// Count the clean run's hits under a rule that never fires.
	fault.Activate(fault.Rule{Site: "team.region", Kind: fault.KindPanic, On: math.MaxInt})
	res, err := npbgo.Run(cfg)
	hits := fault.Hits("team.region")
	fault.Reset()
	if err != nil || !res.Verified {
		t.Fatalf("clean run: verified %v, err %v", res.Verified, err)
	}
	t.Logf("clean run: %d team.region hits", hits)
	for _, on := range []int{1, (hits + 1) / 2} {
		base := runtime.NumGoroutine()
		fault.Activate(fault.Rule{Site: "team.region", Kind: fault.KindPanic, On: on})
		done := make(chan error, 1)
		go func() {
			_, err := npbgo.Run(cfg)
			done <- err
		}()
		select {
		case err = <-done:
		case <-time.After(wall):
			t.Fatalf("panic at hit %d of %d: no return within %v", on, hits, wall)
		}
		fault.Reset()
		var re *npbgo.RunError
		var pe *team.PanicError
		if !errors.As(err, &re) || re.Kind != npbgo.ErrPanic || !errors.As(err, &pe) {
			t.Fatalf("panic at hit %d: err = %v, want *RunError kind %q over a *team.PanicError", on, err, npbgo.ErrPanic)
		}
		if ip, ok := pe.Value.(fault.InjectedPanic); !ok || ip.Hit != on {
			t.Fatalf("panic at hit %d: cause %v (%T), want the injected panic", on, pe.Value, pe.Value)
		}
		noGoroutineLeft(t, base)
		if res, err := npbgo.Run(cfg); err != nil || !res.Verified {
			t.Fatalf("clean run after a panic at hit %d: verified %v, err %v", on, res.Verified, err)
		}
	}
}

// noGoroutineLeft fails the test unless the goroutine count is back to
// base within two seconds.
func noGoroutineLeft(t *testing.T, base int) {
	t.Helper()
	n := runtime.NumGoroutine()
	for stop := time.Now().Add(2 * time.Second); n > base && time.Now().Before(stop); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > base {
		t.Fatalf("%d goroutines left behind", n-base)
	}
}

// TestLUSweepFailuresUnwindThePipeline takes the three ways a pipelined
// sweep can lose a worker — a panic, a cancellation from outside, a
// deadline — through LU.S, where the survivor is waiting for a pipeline
// token rather than at a barrier. Each must come back as a typed error
// within a second of the event, leave no goroutine behind, and leave
// the process able to run LU.S cleanly.
func TestLUSweepFailuresUnwindThePipeline(t *testing.T) {
	cfg := npbgo.Config{Benchmark: npbgo.LU, Class: 'S', Threads: 2}
	// Every plane of the lower sweep takes 20 ms, so the event lands
	// mid-sweep and an uncancelled run would take 20 s.
	slowSweeps := fault.Rule{Site: "lu.sweep", Kind: fault.KindDelay, Count: -1, Sleep: 20 * time.Millisecond}
	cases := []struct {
		name  string
		rules []fault.Rule
		ctx   func() (context.Context, context.CancelFunc)
		kind  string
		cause error
	}{
		{name: "panic", kind: npbgo.ErrPanic,
			rules: []fault.Rule{{Site: "lu.sweep", Kind: fault.KindPanic, On: 5}},
			ctx:   func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }},
		{name: "cancel", kind: npbgo.ErrCancelled, cause: context.Canceled,
			rules: []fault.Rule{slowSweeps},
			ctx: func() (context.Context, context.CancelFunc) {
				ctx, cancel := context.WithCancel(context.Background())
				time.AfterFunc(100*time.Millisecond, cancel)
				return ctx, cancel
			}},
		{name: "deadline", kind: npbgo.ErrCancelled, cause: context.DeadlineExceeded,
			rules: []fault.Rule{slowSweeps},
			ctx: func() (context.Context, context.CancelFunc) {
				return context.WithTimeout(context.Background(), 100*time.Millisecond)
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			fault.Activate(c.rules...)
			defer fault.Reset()
			ctx, cancel := c.ctx()
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := npbgo.RunContext(ctx, cfg)
				done <- err
			}()
			var err error
			select {
			case err = <-done:
			case <-time.After(100*time.Millisecond + time.Second + 10*20*time.Millisecond):
				// The event, the second allowed, and the sweep the
				// unwaiting worker finishes at 20 ms a plane.
				t.Fatal("LU.S did not return: a worker is still waiting for a token")
			}
			var re *npbgo.RunError
			if !errors.As(err, &re) || re.Kind != c.kind {
				t.Fatalf("err = %v, want *RunError kind %q", err, c.kind)
			}
			if c.cause != nil && !errors.Is(err, c.cause) {
				t.Fatalf("err = %v, want %v in chain", err, c.cause)
			}
			var pe *team.PanicError
			if c.kind == npbgo.ErrPanic && !errors.As(err, &pe) {
				t.Fatalf("err = %v, want a *team.PanicError in chain", err)
			}
			fault.Reset()
			cancel()
			noGoroutineLeft(t, base)
			if res, err := npbgo.Run(cfg); err != nil || !res.Verified {
				t.Fatalf("clean LU.S afterwards: verified %v, err %v", res.Verified, err)
			}
		})
	}
}
