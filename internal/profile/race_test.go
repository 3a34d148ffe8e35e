//go:build race

package profile_test

// raceEnabled marks a -race build, whose instrumentation (__tsan_read
// and its kin) legitimately tops a flat CPU profile.
const raceEnabled = true
