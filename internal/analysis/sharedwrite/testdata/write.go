// Golden fixtures for the sharedwrite analyzer: data races on
// variables captured by parallel region bodies. Never built by the go
// tool; type-checked by analysistest.
package fixture

import "npbgo/internal/team"

// capturedScalar is the classic reduction race: every worker
// read-modify-writes the same captured accumulator.
func capturedScalar(tm *team.Team, n int) float64 {
	sum := 0.0
	tm.Run(func(id int) {
		for it := tm.Loop(id, 0, n); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				sum += float64(i) // want `assignment to captured sum`
			}
		}
	})
	return sum
}

// capturedCounter races through an IncDecStmt rather than an assign.
func capturedCounter(tm *team.Team, n int) int {
	count := 0
	tm.Run(func(id int) {
		for it := tm.Loop(id, 0, n); it.Next(); {
			count++ // want `assignment to captured count`
		}
	})
	return count
}

// constIndex writes every worker into the same element.
func constIndex(tm *team.Team, out []float64) {
	tm.Run(func(id int) {
		out[0] = float64(id) // want `indexed only by captured or constant`
	})
}

// partialSlot is the accepted reduction idiom: the write goes through
// Team.Partial(id), a per-worker cell.
func partialSlot(tm *team.Team, n int) float64 {
	tm.Run(func(id int) {
		blo, bhi := team.Block(0, n, tm.Size(), id)
		s := 0.0
		for i := blo; i < bhi; i++ {
			s += float64(i)
		}
		*tm.Partial(id) = s
	})
	return tm.PartialSum()
}

// idSlot indexes the captured slice by the worker id: disjoint cells.
func idSlot(tm *team.Team, out []float64) {
	tm.Run(func(id int) {
		out[id] = float64(id)
	})
}

// blockIndex indexes by a loop variable derived from the chunk bounds,
// so workers touch disjoint ranges.
func blockIndex(tm *team.Team, out []float64) {
	tm.Run(func(id int) {
		for it := tm.Loop(id, 0, len(out)); it.Next(); {
			for i := it.Lo; i < it.Hi; i++ {
				out[i] = float64(i)
			}
		}
	})
}

// masterOnly writes under an id guard: the accepted single-writer
// idiom for master-only sections between barriers.
func masterOnly(tm *team.Team) bool {
	done := false
	tm.Run(func(id int) {
		if id == 0 {
			done = true
		}
	})
	return done
}
