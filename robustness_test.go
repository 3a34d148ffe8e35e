package npbgo_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/team"
)

// TestRunContextDeadlineCancelsCGMidIteration slows CG's outer loop
// with an injected per-iteration delay so a run would take seconds, and
// checks a short deadline stops it within roughly one iteration.
func TestRunContextDeadlineCancelsCGMidIteration(t *testing.T) {
	fault.Activate(1, fault.Rule{
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
	fault.Activate(1, fault.Rule{Site: "team.region", Kind: fault.KindPanic, Count: -1})
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

// TestRunContextVerificationFailureIsTyped corrupts EP's verification
// value and checks the mismatch comes back as a verification RunError
// alongside the failed Result.
func TestRunContextVerificationFailureIsTyped(t *testing.T) {
	fault.Activate(1, fault.Rule{Site: "ep.verify", Kind: fault.KindCorrupt, Count: -1})
	defer fault.Reset()
	res, err := npbgo.RunContext(context.Background(),
		npbgo.Config{Benchmark: npbgo.EP, Class: 'S', Threads: 2})
	if err == nil {
		t.Fatal("corrupted verification accepted")
	}
	var re *npbgo.RunError
	if !errors.As(err, &re) || re.Kind != npbgo.ErrVerification {
		t.Fatalf("err = %v, want kind %q", err, npbgo.ErrVerification)
	}
	if !res.Failed {
		t.Fatal("Result.Failed not set on verification mismatch")
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
// for cancellation in their timed loops. Each parallel region is slowed
// by 20 ms, which stretches the class-S runs to between a quarter of a
// second (IS) and many seconds (BT, SP); a 40 ms deadline must bring
// each back within about one step as a typed cancellation, with no
// goroutine left behind.
func TestRunContextDeadlineCancelsEveryBenchmark(t *testing.T) {
	fault.Activate(1, fault.Rule{Site: "team.region", Kind: fault.KindDelay, Count: -1, Sleep: 20 * time.Millisecond})
	defer fault.Reset()
	for _, b := range npbgo.Benchmarks() {
		t.Run(string(b), func(t *testing.T) {
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := npbgo.RunContext(ctx, npbgo.Config{Benchmark: b, Class: 'S', Threads: 2})
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
			n := runtime.NumGoroutine()
			for stop := time.Now().Add(2 * time.Second); n > base && time.Now().Before(stop); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("%d goroutines left behind", n-base)
			}
		})
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
			fault.Activate(1, c.rules...)
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
			n := runtime.NumGoroutine()
			for stop := time.Now().Add(2 * time.Second); n > base && time.Now().Before(stop); n = runtime.NumGoroutine() {
				time.Sleep(time.Millisecond)
			}
			if n > base {
				t.Fatalf("%d goroutines left behind", n-base)
			}
			if res, err := npbgo.Run(cfg); err != nil || !res.Verified {
				t.Fatalf("clean LU.S afterwards: verified %v, err %v", res.Verified, err)
			}
		})
	}
}
