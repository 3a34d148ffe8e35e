// Package chaos is the soak-campaign driver over the fault-injection
// registry: from one seed it derives a deterministic schedule of cells,
// each armed with a randomized plan of injected panics, delays and
// verification corruptions plus randomized cancellation and timeout
// pressure, runs them back to back, and asserts the suite's recovery
// invariants after every cell:
//
//   - the cell returns — a poisoned barrier or lost wakeup would hang
//     it, so each cell runs under a generous wall deadline;
//   - the runtime recovers — a clean probe run must verify after every
//     faulted cell, proving no panic/poison leaked into global state;
//   - verified means verified — a cell may not report verification
//     success if a corrupt rule fired at its verify site;
//   - the journal stays parseable — after every cell the campaign's
//     own journal must recover cleanly, torn tail or not.
//
// The same seed always reproduces the same schedule, failures and
// order, so a red CI soak is a repro command, not an anecdote.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/journal"
	"npbgo/internal/report"
)

// Campaign configures one soak run.
type Campaign struct {
	Seed       int64
	Cells      int               // number of chaos cells; <= 0 means 8
	Class      byte              // problem class; 0 means 'S'
	Benchmarks []npbgo.Benchmark // cell population; nil means {CG, EP}
	Threads    []int             // thread-count population; nil means {1, 2}
	WallLimit  time.Duration     // per-cell hang deadline; <= 0 means 30s
	Journal    string            // journal file path; "" disables journaling
	Out        io.Writer         // progress log; nil discards
}

// CellPlan is one scheduled chaos cell: its configuration and the
// pressure applied to it.
type CellPlan struct {
	Cfg         npbgo.Config
	Rules       []fault.Rule
	CancelAfter time.Duration // > 0: cancel the context mid-run
	Timeout     time.Duration // > 0: per-run context deadline
	Seed        int64         // per-cell fault plan seed
}

// CellOutcome is a cell's observed result.
type CellOutcome struct {
	Plan     CellPlan
	Err      error
	Verified bool
	Elapsed  time.Duration

	// hung marks a wall-deadline breach; unexported so the violation
	// list stays the single source of truth for consumers.
	hung bool
}

// Report is the campaign's summary.
type Report struct {
	Cells      []CellOutcome
	Violations []string // empty means every invariant held
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Summary renders the campaign result as text.
func (r *Report) Summary() string {
	var b strings.Builder
	ok, failed, cancelled := 0, 0, 0
	for _, c := range r.Cells {
		switch {
		case c.Err == nil:
			ok++
		case isCancel(c.Err):
			cancelled++
		default:
			failed++
		}
	}
	fmt.Fprintf(&b, "chaos: %d cells — %d ok, %d failed (injected), %d cancelled/timed out\n",
		len(r.Cells), ok, failed, cancelled)
	if len(r.Violations) == 0 {
		b.WriteString("chaos: all invariants held (no hangs, runtime recovered after every cell, verification honest, journal parseable)\n")
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "chaos: INVARIANT VIOLATED: %s\n", v)
	}
	return b.String()
}

// Schedule derives the campaign's deterministic cell schedule from its
// seed. Exposed so tests and tooling can inspect what a seed will do
// without running it.
func (c *Campaign) Schedule() []CellPlan {
	cells := c.Cells
	if cells <= 0 {
		cells = 8
	}
	class := c.Class
	if class == 0 {
		class = 'S'
	}
	benches := c.Benchmarks
	if len(benches) == 0 {
		benches = []npbgo.Benchmark{npbgo.CG, npbgo.EP}
	}
	threads := c.Threads
	if len(threads) == 0 {
		threads = []int{1, 2}
	}
	sites := fault.Sites() // sorted: the draw sequence is reproducible
	rng := rand.New(rand.NewSource(c.Seed))
	plans := make([]CellPlan, cells)
	for i := range plans {
		p := CellPlan{
			Cfg: npbgo.Config{
				Benchmark: benches[rng.Intn(len(benches))],
				Class:     class,
				Threads:   threads[rng.Intn(len(threads))],
			},
			Seed: rng.Int63(),
		}
		for _, site := range sites {
			if rng.Float64() >= 0.5 {
				continue
			}
			kind := []fault.Kind{fault.KindPanic, fault.KindDelay, fault.KindCorrupt}[rng.Intn(3)]
			//npblint:ignore faultsite sites are drawn from fault.Sites(), the registry itself
			rule := fault.Rule{Site: site, Kind: kind, On: 1 + rng.Intn(3)}
			if kind == fault.KindDelay {
				rule.Sleep = time.Duration(1+rng.Intn(15)) * time.Millisecond
				rule.Count = -1
			}
			if rng.Float64() < 0.3 {
				rule.Prob = 0.5
			}
			p.Rules = append(p.Rules, rule)
		}
		if rng.Float64() < 0.3 {
			p.CancelAfter = time.Duration(5+rng.Intn(45)) * time.Millisecond
		}
		if rng.Float64() < 0.3 {
			p.Timeout = time.Duration(30+rng.Intn(70)) * time.Millisecond
		}
		plans[i] = p
	}
	return plans
}

// Run executes the campaign. The returned error is non-nil only for
// campaign plumbing failures (journal I/O); injected cell failures are
// expected output, and invariant violations are reported via
// Report.Violations.
func (c *Campaign) Run() (*Report, error) {
	out := c.Out
	if out == nil {
		out = io.Discard
	}
	wall := c.WallLimit
	if wall <= 0 {
		wall = 30 * time.Second
	}
	plans := c.Schedule()

	var jw *journal.Writer
	if c.Journal != "" {
		planned := make([]journal.CellKey, len(plans))
		for i, p := range plans {
			planned[i] = cellKey(p.Cfg)
		}
		var err error
		jw, err = journal.Create(c.Journal, journal.Plan{
			Class:      string(plans[0].Cfg.Class),
			Benchmarks: []string{"chaos"},
			Planned:    planned,
		})
		if err != nil {
			return nil, err
		}
		defer jw.Close()
	}

	rep := &Report{}
	for i, p := range plans {
		fmt.Fprintf(out, "chaos: cell %d/%d %s.%c t%d (%d rules, cancel=%v, timeout=%v)\n",
			i+1, len(plans), p.Cfg.Benchmark, p.Cfg.Class, p.Cfg.Threads,
			len(p.Rules), p.CancelAfter > 0, p.Timeout > 0)
		if jw != nil {
			if err := jw.Start(cellKey(p.Cfg)); err != nil {
				return rep, err
			}
		}
		oc, corruptFired := runCell(p, wall)
		rep.Cells = append(rep.Cells, oc)

		// Invariant: no hang. runCell signals a wall-deadline breach
		// with a nil-Err, Elapsed >= wall outcome marked hung.
		if oc.hung {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cell %d (%s.%c t%d, seed %d): did not return within %v (deadlock?)",
					i+1, p.Cfg.Benchmark, p.Cfg.Class, p.Cfg.Threads, p.Seed, wall))
			// The cell's goroutine may still hold global fault state;
			// stop the campaign rather than pile violations on a wedged
			// runtime.
			if jw != nil {
				m := outcomeMetrics(oc)
				jw.Finish(cellKey(p.Cfg), journal.StatusFail, &m)
			}
			break
		}

		// Invariant: verified means verified.
		if oc.Verified && corruptFired {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cell %d (%s.%c t%d, seed %d): reported verified although a corrupt rule fired",
					i+1, p.Cfg.Benchmark, p.Cfg.Class, p.Cfg.Threads, p.Seed))
		}

		if jw != nil {
			status := journal.StatusOK
			if oc.Err != nil {
				status = journal.StatusFail
			}
			m := outcomeMetrics(oc)
			if err := jw.Finish(cellKey(p.Cfg), status, &m); err != nil {
				return rep, err
			}
			// Invariant: the journal recovers cleanly after every append.
			if lg, err := journal.Read(c.Journal); err != nil {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("cell %d: journal unreadable afterwards: %v", i+1, err))
			} else if lg.Truncated {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("cell %d: journal torn although the writer is alive", i+1))
			}
		}

		// Invariant: the runtime recovered — a clean probe must verify.
		if err := probe(); err != nil {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cell %d (%s.%c t%d, seed %d): clean probe failed afterwards: %v",
					i+1, p.Cfg.Benchmark, p.Cfg.Class, p.Cfg.Threads, p.Seed, err))
		}
	}
	fmt.Fprint(out, rep.Summary())
	return rep, nil
}

// runCell executes one chaos cell under its fault plan and wall
// deadline, and reports whether a corrupt rule fired during it.
func runCell(p CellPlan, wall time.Duration) (CellOutcome, bool) {
	fault.Activate(p.Seed, p.Rules...)
	defer fault.Reset()

	ctx := context.Background()
	var cancels []context.CancelFunc
	if p.Timeout > 0 {
		c, cancel := context.WithTimeout(ctx, p.Timeout)
		ctx, cancels = c, append(cancels, cancel)
	}
	if p.CancelAfter > 0 {
		c, cancel := context.WithTimeout(ctx, p.CancelAfter)
		ctx, cancels = c, append(cancels, cancel)
	}
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	type res struct {
		r   npbgo.Result
		err error
	}
	done := make(chan res, 1)
	start := time.Now()
	go func() {
		r, err := npbgo.RunContext(ctx, p.Cfg)
		done <- res{r, err}
	}()
	select {
	case r := <-done:
		corrupt := fault.Fired(verifySite(p.Cfg.Benchmark), fault.KindCorrupt) > 0
		return CellOutcome{Plan: p, Err: r.err, Verified: r.r.Verified,
			Elapsed: time.Since(start)}, corrupt
	case <-time.After(wall):
		return CellOutcome{Plan: p, Elapsed: time.Since(start), hung: true}, false
	}
}

// probe runs a small clean cell (no faults, no pressure) and returns an
// error unless it verifies — the "poisoned barriers recover" check.
func probe() error {
	fault.Reset()
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2})
	if err != nil {
		return err
	}
	if !res.Verified {
		return fmt.Errorf("probe ran but did not verify (tier %s)", res.Tier)
	}
	return nil
}

// verifySite maps a benchmark to its corrupt-injection verify site key,
// "" (which never fires) for a benchmark with no such site compiled in.
func verifySite(b npbgo.Benchmark) string {
	site := strings.ToLower(string(b)) + ".verify"
	if !slices.Contains(fault.Sites(), site) {
		return ""
	}
	return site
}

func cellKey(cfg npbgo.Config) journal.CellKey {
	return journal.CellKey{Benchmark: string(cfg.Benchmark),
		Class: string(cfg.Class), Threads: cfg.Threads}
}

func outcomeMetrics(oc CellOutcome) report.CellMetrics {
	m := report.CellMetrics{
		Benchmark: string(oc.Plan.Cfg.Benchmark),
		Class:     string(oc.Plan.Cfg.Class),
		Threads:   oc.Plan.Cfg.Threads,
		Elapsed:   oc.Elapsed.Seconds(),
		Verified:  oc.Verified,
	}
	if oc.Err != nil {
		m.Error = oc.Err.Error()
	}
	return m
}

func isCancel(err error) bool {
	var re *npbgo.RunError
	if errors.As(err, &re) {
		return re.Kind == npbgo.ErrCancelled
	}
	return false
}
