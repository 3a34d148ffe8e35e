package nscore

// FluxViscJacobians fills the 5x5 flux Jacobian fjac and viscous
// Jacobian njac (column-major, element (m,n) at m+5*n) for one grid
// point in the coordinate direction whose convective velocity is
// conserved component cv (1 = u, 2 = v, 3 = w). The two matrices drive
// BT's block-tridiagonal assembly (x_solve/y_solve/z_solve), where the
// Fortran writes them out by hand in each routine. LU's jacld/jacu
// blocks are written out in closed form (internal/lu/blocks.go); there
// this function is only the oracle the tests hold them to.
//
// uvec holds the five conserved variables at the point; rhoI, qs and sq
// are the precomputed 1/rho, q/rho and dynamic-pressure-like 0.5*|m|^2 /
// rho scalars.
//
// Only the structural non-zeros are written — 17 of fjac's entries,
// whose positions depend on cv, and 11 of njac's, whose positions do
// not — so the caller passes blocks that are zero everywhere else:
// fresh ones, or ones last filled for the same cv.
//
// Hot path: once per cell of every BT line solve.
func FluxViscJacobians(c *Consts, uvec *[5]float64, rhoI, qs, sq float64, cv int, fjac, njac *[25]float64) {
	uv := [4]float64{0, uvec[1], uvec[2], uvec[3]}
	u5 := uvec[4]
	t1 := rhoI
	t2 := t1 * t1
	t3 := t1 * t2

	// Continuity row.
	fjac[5*cv] = 1.0
	// Momentum rows.
	for r := 1; r <= 3; r++ {
		if r == cv {
			fjac[r] = -(uv[cv]*uv[cv])*t2 + c.C2*qs
			for s := 1; s <= 3; s++ {
				if s == cv {
					fjac[r+5*s] = (2.0 - c.C2) * uv[cv] * t1
				} else {
					fjac[r+5*s] = -c.C2 * uv[s] * t1
				}
			}
			fjac[r+20] = c.C2
		} else {
			fjac[r] = -(uv[r] * uv[cv]) * t2
			fjac[r+5*r] = uv[cv] * t1
			fjac[r+5*cv] = uv[r] * t1
		}
	}
	// Energy row.
	fjac[4] = (c.C2*2.0*sq - c.C1*u5) * uv[cv] * t2
	for s := 1; s <= 3; s++ {
		if s == cv {
			fjac[4+5*s] = c.C1*u5*t1 - c.C2*(qs+uv[cv]*uv[cv]*t2)
		} else {
			fjac[4+5*s] = -c.C2 * (uv[s] * uv[cv]) * t2
		}
	}
	fjac[24] = c.C1 * uv[cv] * t1

	// Viscous Jacobian.
	coef := [4]float64{0, c.C3c4, c.C3c4, c.C3c4}
	coef[cv] = c.Con43 * c.C3c4
	for r := 1; r <= 3; r++ {
		njac[r] = -coef[r] * t2 * uv[r]
		njac[r+5*r] = coef[r] * t1
	}
	sum := 0.0
	for r := 1; r <= 3; r++ {
		sum += (coef[r] - c.C1345) * t3 * uv[r] * uv[r]
		njac[4+5*r] = (coef[r] - c.C1345) * t2 * uv[r]
	}
	njac[4] = -sum - c.C1345*t2*u5
	njac[24] = c.C1345 * t1
}
