package allocgate

import (
	"fmt"
	"reflect"
	"testing"

	"npbgo/internal/team"
)

// TestGate measures every gated configuration and asserts the
// steady-state allocations per Iter stay within Budget. Class S gates
// always run; the W gates are skipped under -short (they execute
// full-size iterations — EP's W iteration alone is seconds of work).
// Measure runs one warm-up iteration of its own before it measures, as
// testing.AllocsPerRun does, so warm counts the extra ones. EP's class-S iteration is
// its whole run, a third of a second, so its keys take the W keys'
// shorter count too.
//
// Measure counts mallocs process-wide, so a stray background
// allocation (GC worker, timer) can leak into a small sample; a gate
// only fails after a second measurement confirms the excess.
//
// The retired spellings team.Guided and team.Stealing have no keys:
// WithSchedule builds dynamic's team for both (team's
// TestRetiredSpellingsRunDynamic), which the dynamic keys gate.
func TestGate(t *testing.T) {
	for _, k := range Keys() {
		t.Run(k.String(), func(t *testing.T) {
			if k.Class != 'S' && testing.Short() {
				t.Skipf("class %c gate skipped in -short mode", k.Class)
			}
			warm, runs := 1, 10
			if k.Class != 'S' || k.Bench == "ep" {
				warm, runs = 0, 2
			}
			got, err := Measure(k, warm, runs)
			if err != nil {
				t.Fatal(err)
			}
			if got > Budget {
				// Confirm before failing: absorb one-off process noise.
				got, err = Measure(k, warm, runs)
				if err != nil {
					t.Fatal(err)
				}
			}
			if got > Budget {
				t.Errorf("%s: %.1f allocs per Iter, budget %d", k, got, Budget)
			}
		})
	}
}

// TestKeys pins the gate's coverage: the eight suite rows at class S
// under static and dynamic, uninstrumented then instrumented, and at
// class W under the static schedule, and nothing else: 40 keys.
func TestKeys(t *testing.T) {
	var want []Key
	for _, b := range []string{"bt", "sp", "lu", "ft", "is", "cg", "mg", "ep"} {
		for _, s := range []team.Schedule{team.Static, team.Dynamic} {
			want = append(want, Key{b, 'S', s, false}, Key{b, 'S', s, true})
		}
		want = append(want, Key{Bench: b, Class: 'W'})
	}
	if got := Keys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
}

// TestMeasureUnknown covers the error path for a benchmark name that
// is not wired into the gate.
func TestMeasureUnknown(t *testing.T) {
	if _, err := Measure(Key{Bench: "nope", Class: 'S'}, 0, 1); err == nil {
		t.Fatal("Measure accepted unknown benchmark")
	}
	if _, err := Measure(Key{Bench: "cg", Class: 'Q'}, 0, 1); err == nil {
		t.Fatal("Measure accepted unknown class")
	}
}

// ExampleKey_String pins the gate naming used in test output and CI
// logs.
func ExampleKey_String() {
	fmt.Println(Key{Bench: "ep", Class: 'S'})
	fmt.Println(Key{Bench: "bt", Class: 'S', Schedule: team.Dynamic})
	fmt.Println(Key{Bench: "cg", Class: 'S', Instrumented: true})
	fmt.Println(Key{Bench: "sp", Class: 'S', Schedule: team.Dynamic, Instrumented: true})
	fmt.Println(Key{Bench: "ft", Class: 'W'})
	// Output:
	// ep.S
	// bt.S.dynamic
	// cg.S.probe
	// sp.S.dynamic.probe
	// ft.W
}
