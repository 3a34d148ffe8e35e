// Golden fixtures for the barrierbalance analyzer: synchronization
// calls that are nested or non-uniformly reached inside parallel
// regions. Never built by the go tool; type-checked by analysistest.
package fixture

import "npbgo/internal/team"

// conditionalBarrier is the LU pipeline anomaly in miniature: only the
// master arrives at the barrier, every other worker runs past it and
// the team deadlocks on the next region.
func conditionalBarrier(tm *team.Team) {
	tm.Run(func(id int) {
		if id == 0 {
			tm.Barrier() // want `conditionally reached`
		}
		tm.Barrier() // unconditional: every worker arrives
	})
}

// idLoopBarrier arrives a different number of times per worker.
func idLoopBarrier(tm *team.Team) {
	tm.Run(func(id int) {
		for i := 0; i < id; i++ {
			tm.Barrier() // want `unequal numbers of times`
		}
	})
}

// nestedRegion starts a region inside a region body; the runtime
// panics on this at execution time, the analyzer catches it earlier.
func nestedRegion(tm *team.Team, n int) {
	tm.Run(func(id int) {
		tm.Run(func(inner int) { // want `nested regions`
			_ = inner + n
		})
	})
}

// conditionalBarrierID: the id-attributed barrier variant (used for
// per-worker wait accounting in the obs layer) has the same arrival
// contract as Barrier and gets the same diagnostics.
func conditionalBarrierID(tm *team.Team) {
	tm.Run(func(id int) {
		if id == 0 {
			tm.BarrierID(id) // want `conditionally reached`
		}
		tm.BarrierID(id) // unconditional: every worker arrives
	})
}

// nearMiss holds the accepted idioms: a barrier inside a loop whose
// bounds are uniform across workers, and a master-only section that
// contains no synchronization.
func nearMiss(tm *team.Team, steps int) {
	tm.Run(func(id int) {
		for s := 0; s < steps; s++ {
			tm.Barrier() // uniform trip count: fine
		}
		if id == 0 {
			_ = id // master-only work without a barrier: fine
		}
	})
}

// hoisted bodies are built once and handed to Run by name; a fused
// region's barriers live there, so they get the same checks.
type kernel struct {
	tm   *team.Team
	body func(id int)
}

func (k *kernel) build(steps int) {
	k.body = func(id int) {
		for s := 0; s < steps; s++ {
			k.tm.BarrierUnlessStatic(id) // uniform: the schedule is the region's
		}
		if id > 0 {
			k.tm.BarrierID(id) // want `conditionally reached`
		}
		for s := id; s < steps; s++ {
			k.tm.BarrierUnlessStatic(id) // want `unequal numbers of times`
		}
		k.tm.Run(func(int) {}) // want `nested regions`
	}
	scale := func(x int) { _ = x * steps } // func(int), but no team calls: silent
	scale(steps)
	k.tm.Run(k.body)
}
