package bt

// The line set-up kernels: the flux and viscous Jacobians of one grid
// point in each direction, and one interior cell's three block
// diagonals. Like the primitives in blocks.go they are straight-line
// code over fixed-size arrays, and they are the input of the lane
// compiler (lanegen): every statement here becomes the same statement
// on eight lines at once in lanes_amd64.s.
//
// jacobiansX/Y/Z are nscore.FluxViscJacobians written out per
// direction: the same expression trees, every entry of both blocks
// written, the structural zeros as +0 (FluxViscJacobians writes only
// the non-zeros, into blocks its callers clear). u is the point's five
// conserved variables, s its 1/rho, q/rho and 0.5*|m|^2/rho (nscore's
// RhoI, Qs and Square); r43 is con43*c3c4, the viscous coefficient of
// the direction's own velocity. TestLineSetupMatchesOracle holds them
// to FluxViscJacobians bit for bit.

// jacobiansX fills the xi-direction flux and viscous Jacobians.
//
// Hot path: once per cell of every xi line.
//
//lanegen:lanes
func jacobiansX(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := s[0]
	qs, sq := s[1], s[2]
	t2 := t1 * t1
	t3 := t1 * t2
	fjac[0] = 0.0
	fjac[1] = -(u1*u1)*t2 + c2*qs
	fjac[2] = -(u2 * u1) * t2
	fjac[3] = -(u3 * u1) * t2
	fjac[4] = (c2*2.0*sq - c1*u4) * u1 * t2
	fjac[5] = 1.0
	fjac[6] = (2.0 - c2) * u1 * t1
	fjac[7] = u2 * t1
	fjac[8] = u3 * t1
	fjac[9] = c1*u4*t1 - c2*(qs+u1*u1*t2)
	fjac[10] = 0.0
	fjac[11] = -c2 * u2 * t1
	fjac[12] = u1 * t1
	fjac[13] = 0.0
	fjac[14] = -c2 * (u2 * u1) * t2
	fjac[15] = 0.0
	fjac[16] = -c2 * u3 * t1
	fjac[17] = 0.0
	fjac[18] = u1 * t1
	fjac[19] = -c2 * (u3 * u1) * t2
	fjac[20] = 0.0
	fjac[21] = c2
	fjac[22] = 0.0
	fjac[23] = 0.0
	fjac[24] = c1 * u1 * t1

	v1 := r43 - c1345
	v2 := c3c4 - c1345
	sum := 0.0
	sum += v1 * t3 * u1 * u1
	sum += v2 * t3 * u2 * u2
	sum += v2 * t3 * u3 * u3
	njac[0] = 0.0
	njac[1] = -r43 * t2 * u1
	njac[2] = -c3c4 * t2 * u2
	njac[3] = -c3c4 * t2 * u3
	njac[4] = -sum - c1345*t2*u4
	njac[5] = 0.0
	njac[6] = r43 * t1
	njac[7] = 0.0
	njac[8] = 0.0
	njac[9] = v1 * t2 * u1
	njac[10] = 0.0
	njac[11] = 0.0
	njac[12] = c3c4 * t1
	njac[13] = 0.0
	njac[14] = v2 * t2 * u2
	njac[15] = 0.0
	njac[16] = 0.0
	njac[17] = 0.0
	njac[18] = c3c4 * t1
	njac[19] = v2 * t2 * u3
	njac[20] = 0.0
	njac[21] = 0.0
	njac[22] = 0.0
	njac[23] = 0.0
	njac[24] = c1345 * t1
}

// jacobiansY fills the eta-direction flux and viscous Jacobians.
//
// Hot path: once per cell of every eta line.
//
//lanegen:lanes
func jacobiansY(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := s[0]
	qs, sq := s[1], s[2]
	t2 := t1 * t1
	t3 := t1 * t2
	fjac[0] = 0.0
	fjac[1] = -(u1 * u2) * t2
	fjac[2] = -(u2*u2)*t2 + c2*qs
	fjac[3] = -(u3 * u2) * t2
	fjac[4] = (c2*2.0*sq - c1*u4) * u2 * t2
	fjac[5] = 0.0
	fjac[6] = u2 * t1
	fjac[7] = -c2 * u1 * t1
	fjac[8] = 0.0
	fjac[9] = -c2 * (u1 * u2) * t2
	fjac[10] = 1.0
	fjac[11] = u1 * t1
	fjac[12] = (2.0 - c2) * u2 * t1
	fjac[13] = u3 * t1
	fjac[14] = c1*u4*t1 - c2*(qs+u2*u2*t2)
	fjac[15] = 0.0
	fjac[16] = 0.0
	fjac[17] = -c2 * u3 * t1
	fjac[18] = u2 * t1
	fjac[19] = -c2 * (u3 * u2) * t2
	fjac[20] = 0.0
	fjac[21] = 0.0
	fjac[22] = c2
	fjac[23] = 0.0
	fjac[24] = c1 * u2 * t1

	v1 := c3c4 - c1345
	v2 := r43 - c1345
	sum := 0.0
	sum += v1 * t3 * u1 * u1
	sum += v2 * t3 * u2 * u2
	sum += v1 * t3 * u3 * u3
	njac[0] = 0.0
	njac[1] = -c3c4 * t2 * u1
	njac[2] = -r43 * t2 * u2
	njac[3] = -c3c4 * t2 * u3
	njac[4] = -sum - c1345*t2*u4
	njac[5] = 0.0
	njac[6] = c3c4 * t1
	njac[7] = 0.0
	njac[8] = 0.0
	njac[9] = v1 * t2 * u1
	njac[10] = 0.0
	njac[11] = 0.0
	njac[12] = r43 * t1
	njac[13] = 0.0
	njac[14] = v2 * t2 * u2
	njac[15] = 0.0
	njac[16] = 0.0
	njac[17] = 0.0
	njac[18] = c3c4 * t1
	njac[19] = v1 * t2 * u3
	njac[20] = 0.0
	njac[21] = 0.0
	njac[22] = 0.0
	njac[23] = 0.0
	njac[24] = c1345 * t1
}

// jacobiansZ fills the zeta-direction flux and viscous Jacobians.
//
// Hot path: once per cell of every zeta line.
//
//lanegen:lanes
func jacobiansZ(fjac, njac *[25]float64, u *[5]float64, s *[3]float64, c1, c2, c3c4, r43, c1345 float64) {
	u1, u2, u3, u4 := u[1], u[2], u[3], u[4]
	t1 := s[0]
	qs, sq := s[1], s[2]
	t2 := t1 * t1
	t3 := t1 * t2
	fjac[0] = 0.0
	fjac[1] = -(u1 * u3) * t2
	fjac[2] = -(u2 * u3) * t2
	fjac[3] = -(u3*u3)*t2 + c2*qs
	fjac[4] = (c2*2.0*sq - c1*u4) * u3 * t2
	fjac[5] = 0.0
	fjac[6] = u3 * t1
	fjac[7] = 0.0
	fjac[8] = -c2 * u1 * t1
	fjac[9] = -c2 * (u1 * u3) * t2
	fjac[10] = 0.0
	fjac[11] = 0.0
	fjac[12] = u3 * t1
	fjac[13] = -c2 * u2 * t1
	fjac[14] = -c2 * (u2 * u3) * t2
	fjac[15] = 1.0
	fjac[16] = u1 * t1
	fjac[17] = u2 * t1
	fjac[18] = (2.0 - c2) * u3 * t1
	fjac[19] = c1*u4*t1 - c2*(qs+u3*u3*t2)
	fjac[20] = 0.0
	fjac[21] = 0.0
	fjac[22] = 0.0
	fjac[23] = c2
	fjac[24] = c1 * u3 * t1

	v1 := c3c4 - c1345
	v2 := r43 - c1345
	sum := 0.0
	sum += v1 * t3 * u1 * u1
	sum += v1 * t3 * u2 * u2
	sum += v2 * t3 * u3 * u3
	njac[0] = 0.0
	njac[1] = -c3c4 * t2 * u1
	njac[2] = -c3c4 * t2 * u2
	njac[3] = -r43 * t2 * u3
	njac[4] = -sum - c1345*t2*u4
	njac[5] = 0.0
	njac[6] = c3c4 * t1
	njac[7] = 0.0
	njac[8] = 0.0
	njac[9] = v1 * t2 * u1
	njac[10] = 0.0
	njac[11] = 0.0
	njac[12] = c3c4 * t1
	njac[13] = 0.0
	njac[14] = v1 * t2 * u2
	njac[15] = 0.0
	njac[16] = 0.0
	njac[17] = 0.0
	njac[18] = r43 * t1
	njac[19] = v2 * t2 * u3
	njac[20] = 0.0
	njac[21] = 0.0
	njac[22] = 0.0
	njac[23] = 0.0
	njac[24] = c1345 * t1
}

// assemble builds one interior cell's block diagonals of the line
// system (the lhs section of x_solve): aa from the flux and viscous
// Jacobians of the cell before (fm, nm), bb from the cell's own viscous
// Jacobian (nc), cc from the cell after (fp, np), plus the diffusion
// diagonal. The direction's constants are folded once (dirSpec):
// mt2 = -dt*t?2, t1 = dt*t?1, t12 = t1*2.0, t2 = dt*t?2, and per
// diagonal entry m, dm = t1*d?m and bm = 1.0 + t1*2.0*d?m. Each fold is
// the double the unfolded expression rounds first, so the blocks are
// those of the unfolded loops (assembleLHS, the oracle in bt_test.go)
// bit for bit, the -0 of aa's structural zeros (-t2*0 - t1*0) included.
//
// Hot path: once per interior cell of every line.
//
//lanegen:lanes
func assemble(aa, bb, cc, fm, fp, nm, nc, np *[25]float64, mt2, t1, t12, t2, d0, d1, d2, d3, d4, b0, b1, b2, b3, b4 float64) {
	for e := 0; e < 25; e++ {
		aa[e] = mt2*fm[e] - t1*nm[e]
		bb[e] = t12 * nc[e]
		cc[e] = t2*fp[e] - t1*np[e]
	}
	aa[0] -= d0
	bb[0] += b0
	cc[0] -= d0
	aa[6] -= d1
	bb[6] += b1
	cc[6] -= d1
	aa[12] -= d2
	bb[12] += b2
	cc[12] -= d2
	aa[18] -= d3
	bb[18] += b3
	cc[18] -= d3
	aa[24] -= d4
	bb[24] += b4
	cc[24] -= d4
}
