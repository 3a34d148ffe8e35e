package main

import (
	"regexp"
	"strings"
	"testing"

	"npbgo/internal/fault"
)

// TestVerboseFailedRunPrintsReport: a run whose verification fails
// exits 1, and under -v its report — the value that mismatched — is on
// stdout first. main used to exit on the verification error before
// printing anything, so -v showed nothing of a failing run.
func TestVerboseFailedRunPrintsReport(t *testing.T) {
	fault.Activate(fault.Rule{Site: "cg.verify", Kind: fault.KindCorrupt, Count: -1})
	defer fault.Reset()
	var stdout, stderr strings.Builder
	if code := run([]string{"-bench", "CG", "-class", "S", "-v"}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, stderr.String())
	}
	if !regexp.MustCompile(`(?m)^\s+zeta\s.*FAILED$`).MatchString(stdout.String()) {
		t.Fatalf("stdout lacks the failed zeta line of the report:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "VERIFICATION FAILED") {
		t.Fatalf("stdout lacks the failed result line:\n%s", stdout.String())
	}
}

// TestVerifiedRunExitsZero: a clean run exits 0 and prints its result.
func TestVerifiedRunExitsZero(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-bench", "EP", "-class", "S"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "VERIFIED(") {
		t.Fatalf("stdout lacks the verified result line:\n%s", stdout.String())
	}
}
