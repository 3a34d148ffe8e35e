package chaos

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"npbgo"
	"npbgo/internal/journal"
)

// TestScheduleDeterministic: the whole point of a seeded campaign is
// that a red CI run is a repro command.
func TestScheduleDeterministic(t *testing.T) {
	c1 := &Campaign{Seed: 42, Cells: 12}
	c2 := &Campaign{Seed: 42, Cells: 12}
	if !reflect.DeepEqual(c1.Schedule(), c2.Schedule()) {
		t.Fatal("same seed produced different schedules")
	}
	c3 := &Campaign{Seed: 7, Cells: 12}
	if reflect.DeepEqual(c1.Schedule(), c3.Schedule()) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

// TestScheduleInjectsPressure: across a modest schedule at least one
// cell must carry fault rules and at least one cancel or timeout —
// a campaign that never injects anything soaks nothing.
func TestScheduleInjectsPressure(t *testing.T) {
	plans := (&Campaign{Seed: 1, Cells: 16}).Schedule()
	rules, pressure := 0, 0
	for _, p := range plans {
		rules += len(p.Rules)
		if p.CancelAfter > 0 || p.Timeout > 0 {
			pressure++
		}
	}
	if rules == 0 {
		t.Fatal("no fault rules in a 16-cell schedule")
	}
	if pressure == 0 {
		t.Fatal("no cancellation/timeout pressure in a 16-cell schedule")
	}
}

// TestCampaignInvariantsHold runs a real seeded campaign against the
// suite and requires every invariant to hold: injected failures are
// fine, violations are not.
func TestCampaignInvariantsHold(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos campaign in -short mode")
	}
	jp := filepath.Join(t.TempDir(), "chaos.jsonl")
	var out bytes.Buffer
	rep, err := (&Campaign{
		Seed:      1,
		Cells:     4,
		WallLimit: 60 * time.Second,
		Journal:   jp,
		Out:       &out,
	}).Run()
	if err != nil {
		t.Fatalf("campaign plumbing failed: %v\n%s", err, out.String())
	}
	if rep.Failed() {
		t.Fatalf("invariants violated:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("ran %d cells, want 4", len(rep.Cells))
	}

	// The journal must round-trip: a plan, and a start+finish per cell.
	lg, err := journal.Read(jp)
	if err != nil {
		t.Fatalf("journal unreadable after campaign: %v", err)
	}
	st := lg.State()
	starts := 0
	for _, n := range st.Starts {
		starts += n
	}
	if starts != 4 {
		t.Fatalf("journal records %d starts, want 4", starts)
	}
}

// TestSummaryReportsViolations: a violated campaign must say so loudly.
func TestSummaryReportsViolations(t *testing.T) {
	rep := &Report{
		Cells:      []CellOutcome{{}},
		Violations: []string{"cell 1: the sky is falling"},
	}
	if !rep.Failed() {
		t.Fatal("Failed() false with violations present")
	}
	s := rep.Summary()
	if !strings.Contains(s, "INVARIANT VIOLATED") || !strings.Contains(s, "sky is falling") {
		t.Fatalf("summary does not surface the violation:\n%s", s)
	}
}

func TestIsCancelClassification(t *testing.T) {
	cancelErr := &npbgo.RunError{Kind: npbgo.ErrCancelled}
	if !isCancel(cancelErr) {
		t.Fatal("cancelled RunError not classified as cancel")
	}
	verErr := &npbgo.RunError{Kind: npbgo.ErrVerification}
	if isCancel(verErr) {
		t.Fatal("verification RunError classified as cancel")
	}
}

// TestVerifySiteMatchesRegisteredSites: a benchmark's key is the
// lower-case site the kernel compiles in, or "" when it has none — a
// key fault.Sites() does not list can never have fired.
func TestVerifySiteMatchesRegisteredSites(t *testing.T) {
	for b, want := range map[npbgo.Benchmark]string{npbgo.CG: "cg.verify", npbgo.EP: "ep.verify", npbgo.BT: ""} {
		if got := verifySite(b); got != want {
			t.Errorf("verifySite(%s) = %q, want %q", b, got, want)
		}
	}
}
