package nscore

// Initialize sets the initial field: transfinite interpolation of the
// exact solution's boundary faces in the interior, and the exact
// solution itself on all six boundary faces, as the Fortran initialize.
func (f *Field) Initialize(c *Consts) {
	n := f.N
	var pface [2][3][5]float64
	var temp [5]float64

	// Fill everything with 1.0 first so the reciprocal computed in
	// compute_rhs is well-defined even at untouched corners.
	for _, u := range &f.U {
		for p := range u {
			u[p] = 1.0
		}
	}

	for k := 0; k < n; k++ {
		zeta := float64(k) * c.Dnzm1
		for j := 0; j < n; j++ {
			eta := float64(j) * c.Dnym1
			for i := 0; i < n; i++ {
				xi := float64(i) * c.Dnxm1
				for ix := 0; ix < 2; ix++ {
					ExactSolution(float64(ix), eta, zeta, &pface[ix][0])
				}
				for iy := 0; iy < 2; iy++ {
					ExactSolution(xi, float64(iy), zeta, &pface[iy][1])
				}
				for iz := 0; iz < 2; iz++ {
					ExactSolution(xi, eta, float64(iz), &pface[iz][2])
				}
				p := f.SAt(i, j, k)
				for m, u := range &f.U {
					pxi := xi*pface[1][0][m] + (1.0-xi)*pface[0][0][m]
					peta := eta*pface[1][1][m] + (1.0-eta)*pface[0][1][m]
					pzeta := zeta*pface[1][2][m] + (1.0-zeta)*pface[0][2][m]
					u[p] = pxi + peta + pzeta -
						pxi*peta - pxi*pzeta - peta*pzeta +
						pxi*peta*pzeta
				}
			}
		}
	}

	// Exact solution on the six faces.
	setFace := func(i, j, k int, xi, eta, zeta float64) {
		ExactSolution(xi, eta, zeta, &temp)
		p := f.SAt(i, j, k)
		for m, u := range &f.U {
			u[p] = temp[m]
		}
	}
	for k := 0; k < n; k++ {
		zeta := float64(k) * c.Dnzm1
		for j := 0; j < n; j++ {
			eta := float64(j) * c.Dnym1
			setFace(0, j, k, 0.0, eta, zeta)
			setFace(n-1, j, k, 1.0, eta, zeta)
		}
	}
	for k := 0; k < n; k++ {
		zeta := float64(k) * c.Dnzm1
		for i := 0; i < n; i++ {
			xi := float64(i) * c.Dnxm1
			setFace(i, 0, k, xi, 0.0, zeta)
			setFace(i, n-1, k, xi, 1.0, zeta)
		}
	}
	for j := 0; j < n; j++ {
		eta := float64(j) * c.Dnym1
		for i := 0; i < n; i++ {
			xi := float64(i) * c.Dnxm1
			setFace(i, j, 0, xi, eta, 0.0)
			setFace(i, j, n-1, xi, eta, 1.0)
		}
	}
}

// ExactRHS computes the steady forcing term: the negated right-hand-side
// operator applied to the exact solution, evaluated once during setup
// (the Fortran exact_rhs).
func (f *Field) ExactRHS(c *Consts) {
	n := f.N
	var dtemp [5]float64

	for _, fo := range &f.Forcing {
		clear(fo)
	}

	ue := make([]float64, 5*n)  // exact conserved variables along a line
	buf := make([]float64, 5*n) // primitives: buf(0)=|vel|^2, buf(1..4)=u,v,w,p-ish
	cuf := make([]float64, n)
	q := make([]float64, n)
	ueAt := func(i, m int) int { return m + 5*i }

	// xi-direction flux differences.
	for k := 1; k < n-1; k++ {
		zeta := float64(k) * c.Dnzm1
		for j := 1; j < n-1; j++ {
			eta := float64(j) * c.Dnym1
			for i := 0; i < n; i++ {
				xi := float64(i) * c.Dnxm1
				ExactSolution(xi, eta, zeta, &dtemp)
				for m := 0; m < 5; m++ {
					ue[ueAt(i, m)] = dtemp[m]
				}
				dtpp := 1.0 / dtemp[0]
				for m := 1; m < 5; m++ {
					buf[ueAt(i, m)] = dtpp * dtemp[m]
				}
				cuf[i] = buf[ueAt(i, 1)] * buf[ueAt(i, 1)]
				buf[ueAt(i, 0)] = cuf[i] + buf[ueAt(i, 2)]*buf[ueAt(i, 2)] + buf[ueAt(i, 3)]*buf[ueAt(i, 3)]
				q[i] = 0.5 * (buf[ueAt(i, 1)]*ue[ueAt(i, 1)] + buf[ueAt(i, 2)]*ue[ueAt(i, 2)] +
					buf[ueAt(i, 3)]*ue[ueAt(i, 3)])
			}
			for i := 1; i < n-1; i++ {
				im1, ip1 := i-1, i+1
				p := f.SAt(i, j, k)
				f.Forcing[0][p] -= c.Tx2*(ue[ueAt(ip1, 1)]-ue[ueAt(im1, 1)]) -
					c.Dx1tx1*(ue[ueAt(ip1, 0)]-2.0*ue[ueAt(i, 0)]+ue[ueAt(im1, 0)])
				f.Forcing[1][p] += -c.Tx2*((ue[ueAt(ip1, 1)]*buf[ueAt(ip1, 1)]+c.C2*(ue[ueAt(ip1, 4)]-q[ip1]))-
					(ue[ueAt(im1, 1)]*buf[ueAt(im1, 1)]+c.C2*(ue[ueAt(im1, 4)]-q[im1]))) +
					c.Xxcon1*(buf[ueAt(ip1, 1)]-2.0*buf[ueAt(i, 1)]+buf[ueAt(im1, 1)]) +
					c.Dx2tx1*(ue[ueAt(ip1, 1)]-2.0*ue[ueAt(i, 1)]+ue[ueAt(im1, 1)])
				f.Forcing[2][p] += -c.Tx2*(ue[ueAt(ip1, 2)]*buf[ueAt(ip1, 1)]-ue[ueAt(im1, 2)]*buf[ueAt(im1, 1)]) +
					c.Xxcon2*(buf[ueAt(ip1, 2)]-2.0*buf[ueAt(i, 2)]+buf[ueAt(im1, 2)]) +
					c.Dx3tx1*(ue[ueAt(ip1, 2)]-2.0*ue[ueAt(i, 2)]+ue[ueAt(im1, 2)])
				f.Forcing[3][p] += -c.Tx2*(ue[ueAt(ip1, 3)]*buf[ueAt(ip1, 1)]-ue[ueAt(im1, 3)]*buf[ueAt(im1, 1)]) +
					c.Xxcon2*(buf[ueAt(ip1, 3)]-2.0*buf[ueAt(i, 3)]+buf[ueAt(im1, 3)]) +
					c.Dx4tx1*(ue[ueAt(ip1, 3)]-2.0*ue[ueAt(i, 3)]+ue[ueAt(im1, 3)])
				f.Forcing[4][p] += -c.Tx2*(buf[ueAt(ip1, 1)]*(c.C1*ue[ueAt(ip1, 4)]-c.C2*q[ip1])-
					buf[ueAt(im1, 1)]*(c.C1*ue[ueAt(im1, 4)]-c.C2*q[im1])) +
					0.5*c.Xxcon3*(buf[ueAt(ip1, 0)]-2.0*buf[ueAt(i, 0)]+buf[ueAt(im1, 0)]) +
					c.Xxcon4*(cuf[ip1]-2.0*cuf[i]+cuf[im1]) +
					c.Xxcon5*(buf[ueAt(ip1, 4)]-2.0*buf[ueAt(i, 4)]+buf[ueAt(im1, 4)]) +
					c.Dx5tx1*(ue[ueAt(ip1, 4)]-2.0*ue[ueAt(i, 4)]+ue[ueAt(im1, 4)])
			}
			f.dissipLine(c, j, k, ue, 0)
		}
	}

	// eta-direction flux differences.
	for k := 1; k < n-1; k++ {
		zeta := float64(k) * c.Dnzm1
		for i := 1; i < n-1; i++ {
			xi := float64(i) * c.Dnxm1
			for j := 0; j < n; j++ {
				eta := float64(j) * c.Dnym1
				ExactSolution(xi, eta, zeta, &dtemp)
				for m := 0; m < 5; m++ {
					ue[ueAt(j, m)] = dtemp[m]
				}
				dtpp := 1.0 / dtemp[0]
				for m := 1; m < 5; m++ {
					buf[ueAt(j, m)] = dtpp * dtemp[m]
				}
				cuf[j] = buf[ueAt(j, 2)] * buf[ueAt(j, 2)]
				buf[ueAt(j, 0)] = cuf[j] + buf[ueAt(j, 1)]*buf[ueAt(j, 1)] + buf[ueAt(j, 3)]*buf[ueAt(j, 3)]
				q[j] = 0.5 * (buf[ueAt(j, 1)]*ue[ueAt(j, 1)] + buf[ueAt(j, 2)]*ue[ueAt(j, 2)] +
					buf[ueAt(j, 3)]*ue[ueAt(j, 3)])
			}
			for j := 1; j < n-1; j++ {
				jm1, jp1 := j-1, j+1
				p := f.SAt(i, j, k)
				f.Forcing[0][p] -= c.Ty2*(ue[ueAt(jp1, 2)]-ue[ueAt(jm1, 2)]) -
					c.Dy1ty1*(ue[ueAt(jp1, 0)]-2.0*ue[ueAt(j, 0)]+ue[ueAt(jm1, 0)])
				f.Forcing[1][p] += -c.Ty2*(ue[ueAt(jp1, 1)]*buf[ueAt(jp1, 2)]-ue[ueAt(jm1, 1)]*buf[ueAt(jm1, 2)]) +
					c.Yycon2*(buf[ueAt(jp1, 1)]-2.0*buf[ueAt(j, 1)]+buf[ueAt(jm1, 1)]) +
					c.Dy2ty1*(ue[ueAt(jp1, 1)]-2.0*ue[ueAt(j, 1)]+ue[ueAt(jm1, 1)])
				f.Forcing[2][p] += -c.Ty2*((ue[ueAt(jp1, 2)]*buf[ueAt(jp1, 2)]+c.C2*(ue[ueAt(jp1, 4)]-q[jp1]))-
					(ue[ueAt(jm1, 2)]*buf[ueAt(jm1, 2)]+c.C2*(ue[ueAt(jm1, 4)]-q[jm1]))) +
					c.Yycon1*(buf[ueAt(jp1, 2)]-2.0*buf[ueAt(j, 2)]+buf[ueAt(jm1, 2)]) +
					c.Dy3ty1*(ue[ueAt(jp1, 2)]-2.0*ue[ueAt(j, 2)]+ue[ueAt(jm1, 2)])
				f.Forcing[3][p] += -c.Ty2*(ue[ueAt(jp1, 3)]*buf[ueAt(jp1, 2)]-ue[ueAt(jm1, 3)]*buf[ueAt(jm1, 2)]) +
					c.Yycon2*(buf[ueAt(jp1, 3)]-2.0*buf[ueAt(j, 3)]+buf[ueAt(jm1, 3)]) +
					c.Dy4ty1*(ue[ueAt(jp1, 3)]-2.0*ue[ueAt(j, 3)]+ue[ueAt(jm1, 3)])
				f.Forcing[4][p] += -c.Ty2*(buf[ueAt(jp1, 2)]*(c.C1*ue[ueAt(jp1, 4)]-c.C2*q[jp1])-
					buf[ueAt(jm1, 2)]*(c.C1*ue[ueAt(jm1, 4)]-c.C2*q[jm1])) +
					0.5*c.Yycon3*(buf[ueAt(jp1, 0)]-2.0*buf[ueAt(j, 0)]+buf[ueAt(jm1, 0)]) +
					c.Yycon4*(cuf[jp1]-2.0*cuf[j]+cuf[jm1]) +
					c.Yycon5*(buf[ueAt(jp1, 4)]-2.0*buf[ueAt(j, 4)]+buf[ueAt(jm1, 4)]) +
					c.Dy5ty1*(ue[ueAt(jp1, 4)]-2.0*ue[ueAt(j, 4)]+ue[ueAt(jm1, 4)])
			}
			f.dissipLine(c, i, k, ue, 1)
		}
	}

	// zeta-direction flux differences.
	for j := 1; j < n-1; j++ {
		eta := float64(j) * c.Dnym1
		for i := 1; i < n-1; i++ {
			xi := float64(i) * c.Dnxm1
			for k := 0; k < n; k++ {
				zeta := float64(k) * c.Dnzm1
				ExactSolution(xi, eta, zeta, &dtemp)
				for m := 0; m < 5; m++ {
					ue[ueAt(k, m)] = dtemp[m]
				}
				dtpp := 1.0 / dtemp[0]
				for m := 1; m < 5; m++ {
					buf[ueAt(k, m)] = dtpp * dtemp[m]
				}
				cuf[k] = buf[ueAt(k, 3)] * buf[ueAt(k, 3)]
				buf[ueAt(k, 0)] = cuf[k] + buf[ueAt(k, 1)]*buf[ueAt(k, 1)] + buf[ueAt(k, 2)]*buf[ueAt(k, 2)]
				q[k] = 0.5 * (buf[ueAt(k, 1)]*ue[ueAt(k, 1)] + buf[ueAt(k, 2)]*ue[ueAt(k, 2)] +
					buf[ueAt(k, 3)]*ue[ueAt(k, 3)])
			}
			for k := 1; k < n-1; k++ {
				km1, kp1 := k-1, k+1
				p := f.SAt(i, j, k)
				f.Forcing[0][p] -= c.Tz2*(ue[ueAt(kp1, 3)]-ue[ueAt(km1, 3)]) -
					c.Dz1tz1*(ue[ueAt(kp1, 0)]-2.0*ue[ueAt(k, 0)]+ue[ueAt(km1, 0)])
				f.Forcing[1][p] += -c.Tz2*(ue[ueAt(kp1, 1)]*buf[ueAt(kp1, 3)]-ue[ueAt(km1, 1)]*buf[ueAt(km1, 3)]) +
					c.Zzcon2*(buf[ueAt(kp1, 1)]-2.0*buf[ueAt(k, 1)]+buf[ueAt(km1, 1)]) +
					c.Dz2tz1*(ue[ueAt(kp1, 1)]-2.0*ue[ueAt(k, 1)]+ue[ueAt(km1, 1)])
				f.Forcing[2][p] += -c.Tz2*(ue[ueAt(kp1, 2)]*buf[ueAt(kp1, 3)]-ue[ueAt(km1, 2)]*buf[ueAt(km1, 3)]) +
					c.Zzcon2*(buf[ueAt(kp1, 2)]-2.0*buf[ueAt(k, 2)]+buf[ueAt(km1, 2)]) +
					c.Dz3tz1*(ue[ueAt(kp1, 2)]-2.0*ue[ueAt(k, 2)]+ue[ueAt(km1, 2)])
				f.Forcing[3][p] += -c.Tz2*((ue[ueAt(kp1, 3)]*buf[ueAt(kp1, 3)]+c.C2*(ue[ueAt(kp1, 4)]-q[kp1]))-
					(ue[ueAt(km1, 3)]*buf[ueAt(km1, 3)]+c.C2*(ue[ueAt(km1, 4)]-q[km1]))) +
					c.Zzcon1*(buf[ueAt(kp1, 3)]-2.0*buf[ueAt(k, 3)]+buf[ueAt(km1, 3)]) +
					c.Dz4tz1*(ue[ueAt(kp1, 3)]-2.0*ue[ueAt(k, 3)]+ue[ueAt(km1, 3)])
				f.Forcing[4][p] += -c.Tz2*(buf[ueAt(kp1, 3)]*(c.C1*ue[ueAt(kp1, 4)]-c.C2*q[kp1])-
					buf[ueAt(km1, 3)]*(c.C1*ue[ueAt(km1, 4)]-c.C2*q[km1])) +
					0.5*c.Zzcon3*(buf[ueAt(kp1, 0)]-2.0*buf[ueAt(k, 0)]+buf[ueAt(km1, 0)]) +
					c.Zzcon4*(cuf[kp1]-2.0*cuf[k]+cuf[km1]) +
					c.Zzcon5*(buf[ueAt(kp1, 4)]-2.0*buf[ueAt(k, 4)]+buf[ueAt(km1, 4)]) +
					c.Dz5tz1*(ue[ueAt(kp1, 4)]-2.0*ue[ueAt(k, 4)]+ue[ueAt(km1, 4)])
			}
			f.dissipLine(c, i, j, ue, 2)
		}
	}

	// Finally negate: the forcing balances the operator exactly.
	for _, fo := range &f.Forcing {
		for p := range fo {
			fo[p] = -fo[p]
		}
	}
}

// dissipLine subtracts the boundary-adjusted fourth-difference
// dissipation of the exact-solution line ue from the forcing along
// direction dir (0 = xi with fixed (j,k) = (a,b), 1 = eta with fixed
// (i,k) = (a,b), 2 = zeta with fixed (i,j) = (a,b)).
func (f *Field) dissipLine(c *Consts, a, bb int, ue []float64, dir int) {
	n := f.N
	Dssp := c.Dssp
	at := func(l, m int) float64 { return ue[m+5*l] }
	pAt := func(l int) int {
		switch dir {
		case 0:
			return f.SAt(l, a, bb)
		case 1:
			return f.SAt(a, l, bb)
		default:
			return f.SAt(a, bb, l)
		}
	}
	for m, fo := range &f.Forcing {
		l := 1
		fo[pAt(l)] -= Dssp * (5.0*at(l, m) - 4.0*at(l+1, m) + at(l+2, m))
		l = 2
		fo[pAt(l)] -= Dssp * (-4.0*at(l-1, m) + 6.0*at(l, m) - 4.0*at(l+1, m) + at(l+2, m))
		for l = 3; l <= n-4; l++ {
			fo[pAt(l)] -= Dssp * (at(l-2, m) - 4.0*at(l-1, m) + 6.0*at(l, m) - 4.0*at(l+1, m) + at(l+2, m))
		}
		l = n - 3
		fo[pAt(l)] -= Dssp * (at(l-2, m) - 4.0*at(l-1, m) + 6.0*at(l, m) - 4.0*at(l+1, m))
		l = n - 2
		fo[pAt(l)] -= Dssp * (at(l-2, m) - 4.0*at(l-1, m) + 5.0*at(l, m))
	}
}
