package team

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// parkedWorkers reports how many workers are parked at the fork gate.
func (t *Team) parkedWorkers() int { return int(t.fork.parked.Load()) }

// TestIdleWorkersPark: polling is bounded. Once the master has been
// serial for 10 ms — a set-up phase, a verification — every worker has
// left its core, which is what keeps setup_s flat; the next region
// still completes, and its cost (the benchmark's
// team.forkjoin_parked_ns) is logged whichever way it moves.
func TestIdleWorkersPark(t *testing.T) {
	const n = 2
	tm := New(n)
	defer tm.Close()
	if tm.lot.spin == 0 {
		t.Skipf("GOMAXPROCS %d < %d workers: this team never polls", runtime.GOMAXPROCS(0), n)
	}
	ran := make([]int, n)
	body := func(id int) { ran[id]++ }
	tm.Run(body)
	time.Sleep(10 * time.Millisecond)
	// The budget is ~300 us; the retry only covers a worker that a busy
	// host kept off its CPU for the whole 10 ms.
	for deadline := time.Now().Add(2 * time.Second); tm.parkedWorkers() != n-1; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d workers parked after the master went serial", tm.parkedWorkers(), n-1)
		}
		time.Sleep(time.Millisecond)
	}
	t0 := time.Now()
	tm.Run(body)
	t.Logf("fork-join onto parked workers: %v", time.Since(t0))
	for id, c := range ran {
		if c != 2 {
			t.Fatalf("worker %d ran %d regions, want 2", id, c)
		}
	}
}

// TestOversubscribedTeamNeverPolls: a poller holds its P, so seven
// workers on two Ps must park at once — decided in New — and a storm of
// barriers, each needing all seven to run, finishes in bounded time.
func TestOversubscribedTeamNeverPolls(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	tm := New(7)
	defer tm.Close()
	if tm.lot.spin != 0 {
		t.Fatalf("7 workers on 2 Ps got a poll budget of %d, want 0", tm.lot.spin)
	}
	two := New(2)
	defer two.Close()
	if two.lot.spin != spinPolls {
		t.Fatalf("2 workers on 2 Ps got a poll budget of %d, want %d", two.lot.spin, spinPolls)
	}
	storm := 10_000
	if testing.Short() {
		storm = 1_000
	}
	within(t, 60*time.Second, "the barrier storm", func() {
		tm.Run(func(id int) {
			for i := 0; i < storm; i++ {
				tm.BarrierID(id)
			}
		})
	})
}

// TestNewCloseLeaksNothing: Close joins the workers it started.
func TestNewCloseLeaksNothing(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		tm := New(3)
		if i%2 == 0 {
			tm.Run(func(int) {}) // closed hot and closed cold
		}
		tm.Close()
	}
	if n := settledGoroutines(base); n > base {
		t.Fatalf("%d goroutines left after 1000 New/Close", n-base)
	}
}

// TestRegionStormWithRandomGaps drives the poll → park → wake hand-off
// from both sides: master-only gaps between zero and twice the poll
// budget (measured here, since the race detector stretches it), so a
// region finds its workers polling, parking or parked, and the master's
// join finds them finishing before, during and after its own poll. Run
// it under -race.
func TestRegionStormWithRandomGaps(t *testing.T) {
	regions := 100_000
	if testing.Short() {
		regions = 10_000
	}
	const n = 2 // a team that fits the smallest CI host, or it never polls
	tm := New(n)
	defer tm.Close()
	t0 := time.Now()
	for i := 0; i < spinPolls; i++ {
		if tm.fork.v.Load() != 0 {
			t.Fatal("fork gate advanced before the first region")
		}
		pause()
	}
	budget := time.Since(t0)
	rng := rand.New(rand.NewSource(1))
	var sum [n]struct {
		v int
		_ [56]byte
	}
	body := func(id int) { sum[id].v++ }
	for i := 0; i < regions; i++ {
		if i%32 == 0 { // the rest run back to back, workers still polling
			gap := time.Duration(rng.Int63n(int64(2 * budget)))
			for t0 := time.Now(); time.Since(t0) < gap; {
			}
		}
		tm.Run(body)
	}
	t.Logf("poll budget %v; %d of %d regions followed a gap of up to twice that", budget, regions/32, regions)
	for id := range sum {
		if sum[id].v != regions {
			t.Fatalf("worker %d ran %d of %d regions", id, sum[id].v, regions)
		}
	}
}
