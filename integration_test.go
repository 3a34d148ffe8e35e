package npbgo_test

import (
	"testing"

	"npbgo"
)

// TestClassWVerifies runs the whole suite at class W against the
// official reference values — a heavier integration pass (tens of
// seconds); skipped under -short.
func TestClassWVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("class W integration run skipped in -short mode")
	}
	// BT/SP/LU at W take minutes on a laptop-class core; the W
	// integration pass covers the kernels, whose W runs are seconds.
	// The pseudo-applications' W/A verification is exercised by
	// cmd/npbsuite and was used to pin their reference values.
	for _, b := range []npbgo.Benchmark{npbgo.FT, npbgo.MG, npbgo.CG, npbgo.IS, npbgo.EP} {
		b := b
		t.Run(string(b), func(t *testing.T) {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'W', Threads: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed {
				t.Fatalf("verification failed:\n%s", res.Detail)
			}
			if !res.Verified {
				t.Fatalf("expected verification, tier %s", res.Tier)
			}
		})
	}
}

// TestProfileRequested checks the per-phase profile plumbing.
func TestProfileRequested(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.BT, Class: 'S', Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"rhs", "xsolve", "ysolve", "zsolve", "add"} {
		if !contains(res.Profile, phase) {
			t.Fatalf("profile missing phase %q:\n%s", phase, res.Profile)
		}
	}
	// Profile not requested: absent.
	res2, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.BT, Class: 'S'})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Profile != "" {
		t.Fatal("profile present without request")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestObsRequested checks the runtime-metrics plumbing: Config.Obs
// populates Result.Obs for every benchmark and implies a phase profile
// where the benchmark supports one.
func TestObsRequested(t *testing.T) {
	for _, b := range npbgo.Benchmarks() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			res, err := npbgo.Run(npbgo.Config{Benchmark: b, Class: 'S', Threads: 2, Obs: true})
			if err != nil {
				t.Fatal(err)
			}
			s := res.Obs
			if s == nil {
				t.Fatal("Config.Obs set but Result.Obs is nil")
			}
			if s.Workers != 2 {
				t.Fatalf("recorder sized for %d workers, want 2", s.Workers)
			}
			if s.Regions == 0 {
				t.Fatal("no regions recorded")
			}
			for i, busy := range s.Busy {
				if busy <= 0 {
					t.Fatalf("worker %d recorded no busy time: %v", i, s.Busy)
				}
			}
			if im := s.Imbalance(); im < 1 {
				t.Fatalf("imbalance %v < 1", im)
			}
		})
	}

	// Obs off: no snapshot, no phases.
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.EP, Class: 'S', Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Obs != nil || res.Phases != nil {
		t.Fatal("obs data present without Config.Obs")
	}
}

// TestObsImpliesPhases checks that Obs turns on the phase profile for
// benchmarks that own a timer set.
func TestObsImpliesPhases(t *testing.T) {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.CG, Class: 'S', Threads: 2, Obs: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) == 0 {
		t.Fatal("Obs should imply phase timers for CG")
	}
	names := map[string]bool{}
	for _, p := range res.Phases {
		names[p.Name] = true
		if p.Seconds < 0 || p.Laps < 1 {
			t.Fatalf("degenerate phase %+v", p)
		}
	}
	if !names["t_conj_grad"] {
		t.Fatalf("missing t_conj_grad phase: %+v", res.Phases)
	}
}

// TestProfileSPLU checks the per-phase plumbing for the other two
// pseudo-applications.
func TestProfileSPLU(t *testing.T) {
	for _, bench := range []npbgo.Benchmark{npbgo.SP, npbgo.LU} {
		res, err := npbgo.Run(npbgo.Config{Benchmark: bench, Class: 'S', Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Profile == "" {
			t.Fatalf("%s: no profile produced", bench)
		}
		if !contains(res.Profile, "rhs") {
			t.Fatalf("%s profile missing rhs phase:\n%s", bench, res.Profile)
		}
	}
}
