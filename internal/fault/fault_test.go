package fault

import (
	"sort"
	"testing"
	"time"
)

func TestInactiveIsNoop(t *testing.T) {
	Reset()
	Maybe("x") // must not panic
	if Corrupted("x") {
		t.Fatal("Corrupted fired with no plan")
	}
	if Hits("x") != 0 {
		t.Fatal("hits counted with no plan")
	}
}

func TestPanicFiresOnConfiguredHitOnly(t *testing.T) {
	Activate(Rule{Site: "s", Kind: KindPanic, On: 3})
	defer Reset()
	Maybe("s")
	Maybe("s")
	func() {
		defer func() {
			v := recover()
			ip, ok := v.(InjectedPanic)
			if !ok {
				t.Fatalf("recovered %v (%T), want InjectedPanic", v, v)
			}
			if ip.Site != "s" || ip.Hit != 3 {
				t.Fatalf("InjectedPanic = %+v", ip)
			}
		}()
		Maybe("s")
		t.Fatal("third hit did not panic")
	}()
	// Count defaults to one firing: later hits pass.
	Maybe("s")
	if Hits("s") != 4 {
		t.Fatalf("Hits = %d, want 4", Hits("s"))
	}
}

func TestUnlimitedCountFiresEveryHit(t *testing.T) {
	Activate(Rule{Site: "d", Kind: KindDelay, Count: -1, Sleep: time.Microsecond})
	defer Reset()
	for i := 0; i < 5; i++ {
		Maybe("d") // every hit sleeps; just exercising the path
	}
	if Hits("d") != 5 {
		t.Fatalf("Hits = %d", Hits("d"))
	}
}

func TestSitesAreIndependent(t *testing.T) {
	Activate(Rule{Site: "a", Kind: KindPanic})
	defer Reset()
	Maybe("b") // different site: no panic
	if Hits("b") != 1 || Hits("a") != 0 {
		t.Fatalf("hits a=%d b=%d", Hits("a"), Hits("b"))
	}
}

func TestCorruptFloat(t *testing.T) {
	Activate(Rule{Site: "v", Kind: KindCorrupt, On: 2})
	defer Reset()
	if got := CorruptFloat("v", 1.5); got != 1.5 {
		t.Fatalf("hit 1 corrupted: %v", got)
	}
	if got := CorruptFloat("v", 1.5); got == 1.5 {
		t.Fatal("hit 2 not corrupted")
	}
	if got := CorruptFloat("v", 1.5); got != 1.5 {
		t.Fatalf("hit 3 corrupted after Count exhausted: %v", got)
	}
}

func TestCorruptRulesInvisibleToMaybe(t *testing.T) {
	Activate(Rule{Site: "m", Kind: KindCorrupt, Count: -1})
	defer Reset()
	Maybe("m") // corrupt rules must not fire through Maybe
	if !Corrupted("m") {
		t.Fatal("corrupt rule did not fire through Corrupted")
	}
}

func TestActivateReplacesPlan(t *testing.T) {
	Activate(Rule{Site: "old", Kind: KindPanic})
	Activate(Rule{Site: "new", Kind: KindCorrupt})
	defer Reset()
	Maybe("old") // old rule gone: no panic
	if !Corrupted("new") {
		t.Fatal("new rule inactive")
	}
}

// TestSitesSortedAndStable: `npbsuite -list-faults` output must be
// diffable across runs and builds, so Sites() guarantees sorted order
// itself rather than trusting the declaration order of the registry.
func TestSitesSortedAndStable(t *testing.T) {
	a := Sites()
	if !sort.StringsAreSorted(a) {
		t.Fatalf("Sites() not sorted: %v", a)
	}
	b := Sites()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Sites() unstable between calls: %v vs %v", a, b)
		}
	}
	// Mutating the returned slice must not corrupt the registry.
	a[0] = "zzz.mutated"
	if c := Sites(); c[0] == "zzz.mutated" {
		t.Fatal("Sites() exposes registry storage")
	}
}
