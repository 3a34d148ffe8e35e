package mg

import (
	"math"

	"npbgo/internal/team"
)

// cycle is the V-cycle engine: prebuilt region bodies and per-worker
// scratch rows, so the timed loop performs no heap allocation (enforced
// by internal/allocgate). Operands of the current stencil are staged in
// the st* fields; the bodies read them and split planes with the team's
// Loop.
type cycle struct {
	tm   *team.Team
	a, c [4]float64
	rows [][]float64    // per-worker generator row for findCharges, the finest n1 long
	sums [][2][]float64 // per-worker face- and edge-sum rows of resid and psinv, as long
	maxs []float64      // per-worker max-norm slots

	stR, stU, stV []float64 // staged operands (roles vary per stencil)
	stF, stC      level     // staged fine/coarse levels

	residBody  func(id int)
	psinvBody  func(id int)
	rprj3Body  func(id int)
	interpBody func(id int)
	normBody   func(id int)
}

// newCycle builds the engine for a team of the given size working on
// grids whose finest extent (including ghosts) is maxN1.
func newCycle(workers, maxN1 int, a, c [4]float64) *cycle {
	cy := &cycle{a: a, c: c}
	rows, sums := make([][]float64, workers), make([][2][]float64, workers)
	for id := range rows {
		rows[id] = make([]float64, maxN1)
		sums[id] = [2][]float64{make([]float64, maxN1), make([]float64, maxN1)}
	}
	cy.rows, cy.sums = rows, sums
	cy.maxs = make([]float64, workers)

	// residual stencil over the staged operands
	cy.residBody = func(id int) {
		l, s := cy.stF, &cy.sums[id]
		for it := cy.tm.Loop(id, 1, l.n3-1); it.Next(); {
			residRange(cy.stR, cy.stU, cy.stV, l, &cy.a, s[0], s[1], it.Lo, it.Hi)
		}
	}

	// smoother stencil over the staged operands
	cy.psinvBody = func(id int) {
		l, s := cy.stF, &cy.sums[id]
		for it := cy.tm.Loop(id, 1, l.n3-1); it.Next(); {
			psinvRange(cy.stR, cy.stU, l, &cy.c, s[0], s[1], it.Lo, it.Hi)
		}
	}

	// full-weighting restriction over the staged operands
	cy.rprj3Body = func(id int) {
		for it := cy.tm.Loop(id, 1, cy.stC.n3-1); it.Next(); {
			rprj3Range(cy.stR, cy.stF, cy.stU, cy.stC, it.Lo, it.Hi)
		}
	}

	// trilinear prolongation over the staged operands
	cy.interpBody = func(id int) {
		for it := cy.tm.Loop(id, 0, cy.stC.n3-1); it.Next(); {
			interpRange(cy.stR, cy.stC, cy.stU, cy.stF, it.Lo, it.Hi)
		}
	}

	// residual norms into the block-indexed reduction and max slots
	cy.normBody = func(id int) {
		tm := cy.tm
		l := cy.stF
		r := cy.stR
		n1, n2 := l.n1, l.n2
		for it := tm.ReduceBlocks(id, 1, l.n3-1); it.Next(); {
			s, m := 0.0, 0.0
			for i3 := it.Lo; i3 < it.Hi; i3++ {
				for i2 := 1; i2 < n2-1; i2++ {
					c := l.at(0, i2, i3)
					for i1 := 1; i1 < n1-1; i1++ {
						v := r[c+i1]
						s += v * v
						if a := math.Abs(v); a > m {
							m = a
						}
					}
				}
			}
			*tm.Partial(it.Chunk()) = s
			cy.maxs[it.Chunk()] = m
		}
	}

	return cy
}

// resid computes r = v - A u on the interior of level l and refreshes
// r's ghost shells.
func (cy *cycle) resid(tm *team.Team, r, u, v []float64, l level) {
	cy.tm, cy.stR, cy.stU, cy.stV, cy.stF = tm, r, u, v, l
	tm.Run(cy.residBody)
	comm3(r, l)
}

// psinv applies the smoother u += C r on the interior of level l and
// refreshes u's ghost shells.
func (cy *cycle) psinv(tm *team.Team, r, u []float64, l level) {
	cy.tm, cy.stR, cy.stU, cy.stF = tm, r, u, l
	tm.Run(cy.psinvBody)
	comm3(u, l)
}

// rprj3 restricts the fine residual r (level lk) onto the coarse grid
// s (level lj) and refreshes s's ghost shells.
func (cy *cycle) rprj3(tm *team.Team, r []float64, lk level, s []float64, lj level) {
	cy.tm, cy.stR, cy.stF, cy.stU, cy.stC = tm, r, lk, s, lj
	tm.Run(cy.rprj3Body)
	comm3(s, lj)
}

// interp adds the trilinear prolongation of the coarse correction z
// (level lj) into the fine grid u (level lk).
func (cy *cycle) interp(tm *team.Team, z []float64, lj level, u []float64, lk level) {
	cy.tm, cy.stR, cy.stC, cy.stU, cy.stF = tm, z, lj, u, lk
	tm.Run(cy.interpBody)
}

// norm2u3 returns the discrete L2 norm (scaled by the interior point
// count nxyz) and the max norm of r's interior on level l.
func (cy *cycle) norm2u3(tm *team.Team, r []float64, l level, nxyz float64) (rnm2, rnmu float64) {
	cy.tm, cy.stR, cy.stF = tm, r, l
	tm.Run(cy.normBody)
	sum := tm.PartialSum()
	for id := 0; id < tm.Size(); id++ {
		if cy.maxs[id] > rnmu {
			rnmu = cy.maxs[id]
		}
	}
	return math.Sqrt(sum / nxyz), rnmu
}
