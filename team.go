package npbgo

import "npbgo/internal/team"

// Team is the master-worker goroutine pool the suite is parallelized
// with, exposed for building custom parallel computations in the same
// style (see examples/teamcompute).
type Team = team.Team

// NewTeam creates a team of n workers; Close it when done.
func NewTeam(n int) *Team { return team.New(n) }

// BlockRange statically partitions [lo, hi) into parts pieces and
// returns piece id, as the team's loop scheduler does.
func BlockRange(lo, hi, parts, id int) (blo, bhi int) {
	return team.Block(lo, hi, parts, id)
}
