//go:build !race

package profile_test

const raceEnabled = false
