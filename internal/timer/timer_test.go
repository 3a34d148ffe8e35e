package timer

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestStartStopAccumulates(t *testing.T) {
	s := NewSet()
	s.Start("phase")
	time.Sleep(5 * time.Millisecond)
	s.Stop("phase")
	first := s.Elapsed("phase")
	if first <= 0 {
		t.Fatalf("elapsed %v not positive", first)
	}
	s.Start("phase")
	time.Sleep(5 * time.Millisecond)
	s.Stop("phase")
	if s.Elapsed("phase") <= first {
		t.Fatalf("second lap did not accumulate: %v then %v", first, s.Elapsed("phase"))
	}
}

func TestStopWithoutStartIsNoop(t *testing.T) {
	s := NewSet()
	s.Stop("missing")
	if s.Elapsed("missing") != 0 {
		t.Fatalf("unexpected elapsed %v", s.Elapsed("missing"))
	}
}

func TestElapsedExcludesRunningLap(t *testing.T) {
	s := NewSet()
	s.Start("p")
	if s.Elapsed("p") != 0 {
		t.Fatalf("running lap leaked into Elapsed: %v", s.Elapsed("p"))
	}
	s.Stop("p")
}

func TestNamesInFirstStartOrder(t *testing.T) {
	s := NewSet()
	for _, n := range []string{"total", "rhs", "xsolve", "rhs"} {
		s.Start(n)
		s.Stop(n)
	}
	var got []string
	for _, p := range s.Phases() {
		got = append(got, p.Name)
	}
	want := []string{"total", "rhs", "xsolve"}
	if len(got) != len(want) {
		t.Fatalf("names %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names %v, want %v", got, want)
		}
	}
}

func TestStringContainsNames(t *testing.T) {
	s := NewSet()
	s.Start("total")
	s.Stop("total")
	if !strings.Contains(s.String(), "total") {
		t.Fatalf("String() missing timer name: %q", s.String())
	}
}

func TestLapsCounted(t *testing.T) {
	s := NewSet()
	for i := 0; i < 3; i++ {
		s.Start("p")
		s.Stop("p")
	}
	s.Stop("p")       // no-op: not running, must not count a lap
	s.Stop("missing") // no-op: never started, must not add a phase
	if ph := s.Phases(); len(ph) != 1 || ph[0].Name != "p" || ph[0].Laps != 3 {
		t.Fatalf("Phases = %+v, want p with 3 laps", ph)
	}
}

func TestPhasesStructuredProfile(t *testing.T) {
	s := NewSet()
	s.Start("total")
	s.Start("rhs")
	time.Sleep(2 * time.Millisecond)
	s.Stop("rhs")
	s.Stop("total")
	ph := s.Phases()
	if len(ph) != 2 || ph[0].Name != "total" || ph[1].Name != "rhs" {
		t.Fatalf("Phases order = %+v, want total then rhs", ph)
	}
	if ph[1].Seconds <= 0 || ph[1].Laps != 1 {
		t.Fatalf("rhs phase = %+v, want positive seconds and 1 lap", ph[1])
	}
}

func TestWorkerName(t *testing.T) {
	if got := Worker("t_batch", 3); got != "t_batch/w3" {
		t.Fatalf("Worker = %q", got)
	}
}

// TestConcurrentSetRaceClean exercises a concurrent-mode Set from many
// goroutines at once, each charging its own per-worker phase names plus
// one shared read path; run under -race (the Makefile race target) this
// is the regression test for the thread-safe mode.
func TestConcurrentSetRaceClean(t *testing.T) {
	s := NewConcurrentSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := Worker("t_phase", w)
			for i := 0; i < 200; i++ {
				s.Start(name)
				s.Stop(name)
				_ = s.Elapsed(name)
			}
			_ = s.Phases()
			_ = s.String()
		}(w)
	}
	wg.Wait()
	ph := s.Phases()
	if len(ph) != 8 {
		t.Fatalf("%d phases, want 8", len(ph))
	}
	for _, p := range ph {
		if p.Laps != 200 {
			t.Fatalf("%s laps = %d, want 200", p.Name, p.Laps)
		}
	}
}
