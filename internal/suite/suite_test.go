package suite

import (
	"testing"

	"npbgo/internal/kernel"
)

// TestRows holds every row to the contract: it constructs at class S,
// reports a non-zero footprint, and rejects an unknown class and a
// thread count below one with an error and a nil Kernel.
func TestRows(t *testing.T) {
	for _, r := range Rows {
		t.Run(r.Name, func(t *testing.T) {
			if got, ok := Lookup(r.Name); !ok || got.Name != r.Name {
				t.Fatalf("Lookup(%q) = %q, %v", r.Name, got.Name, ok)
			}
			if k, err := r.New('S', 2, kernel.Env{}); err != nil || k == nil {
				t.Fatalf("New('S', 2) = %v, %v", k, err)
			}
			if n, err := r.Footprint('S', 2); err != nil || n == 0 {
				t.Fatalf("Footprint('S', 2) = %d, %v", n, err)
			}
			if k, err := r.New('Q', 1, kernel.Env{}); err == nil || k != nil {
				t.Fatalf("New accepted class Q: %v, %v", k, err)
			}
			if k, err := r.New('S', 0, kernel.Env{}); err == nil || k != nil {
				t.Fatalf("New accepted 0 threads: %v, %v", k, err)
			}
			if _, err := r.Footprint('Q', 1); err == nil {
				t.Fatal("Footprint accepted class Q")
			}
		})
	}
	if _, ok := Lookup("QQ"); ok {
		t.Fatal("Lookup found benchmark QQ")
	}
}
