package fixture

import "npbgo/internal/team"

// suppressedWrite documents a benign last-writer-wins flag.
func suppressedWrite(tm *team.Team) bool {
	touched := false
	tm.Run(func(int) {
		touched = true //npblint:ignore sharedwrite every worker writes the same value
	})
	return touched
}
