package nscore

import (
	"math"
	"testing"

	"npbgo/internal/team"
)

func TestSetConstantsDerived(t *testing.T) {
	c := SetConstants(12, 0.01)
	if c.Dnxm1 != 1.0/11.0 {
		t.Fatalf("Dnxm1 = %v", c.Dnxm1)
	}
	if c.Tx2 != 11.0/2.0 {
		t.Fatalf("Tx2 = %v", c.Tx2)
	}
	if c.Dssp != 0.25 {
		t.Fatalf("Dssp = %v (dz1 = 1.0 dominates)", c.Dssp)
	}
	if math.Abs(c.C1345-1.4*1.4*0.1*1.0) > 1e-15 {
		t.Fatalf("C1345 = %v", c.C1345)
	}
	if c.Xxcon1 != c.C3c4*c.Tx3*c.Con43*c.Tx3 {
		t.Fatalf("Xxcon1 inconsistent")
	}
}

func TestFieldOffsets(t *testing.T) {
	f := NewField(5, true)
	if f.SAt(4, 4, 4) != len(f.Us)-1 {
		t.Fatal("SAt extreme wrong")
	}
	for m := range f.U {
		if len(f.U[m]) != len(f.Us) || len(f.Rhs[m]) != len(f.Us) || len(f.Forcing[m]) != len(f.Us) {
			t.Fatalf("component %d rows are not one scalar field long", m)
		}
	}
	if f.Speed == nil {
		t.Fatal("Speed not allocated with withSpeed")
	}
	if NewField(5, false).Speed != nil {
		t.Fatal("Speed allocated without withSpeed")
	}
}

func TestComputeRHSFillsSpeed(t *testing.T) {
	c := SetConstants(8, 0.01)
	f := NewField(8, true)
	tm := team.New(1)
	defer tm.Close()
	f.Initialize(&c)
	f.ExactRHS(&c)
	f.ComputeRHS(&c, tm)
	for i, v := range f.Speed {
		if !(v > 0) || math.IsNaN(v) {
			t.Fatalf("speed[%d] = %v not positive", i, v)
		}
	}
}

func TestErrorNormZeroForExactField(t *testing.T) {
	c := SetConstants(8, 0.01)
	f := NewField(8, false)
	var ue [5]float64
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				ExactSolution(float64(i)*c.Dnxm1, float64(j)*c.Dnym1, float64(k)*c.Dnzm1, &ue)
				for m, u := range &f.U {
					u[f.SAt(i, j, k)] = ue[m]
				}
			}
		}
	}
	for m, v := range f.ErrorNorm(&c) {
		if v != 0 {
			t.Fatalf("error norm %d = %v for exact field", m, v)
		}
	}
}

func TestFluxJacobianConsistentWithFlux(t *testing.T) {
	// The flux Jacobian must satisfy F(u)*u = flux-ish homogeneity
	// properties; here we check it numerically: dF/du via finite
	// differences of the Euler flux in direction cv matches fjac.
	c := SetConstants(12, 0.01)
	state := [5]float64{1.3, 0.4, -0.2, 0.25, 2.9}
	flux := func(u [5]float64, cv int) [5]float64 {
		rho := u[0]
		vel := u[cv] / rho
		q := 0.5 * (u[1]*u[1] + u[2]*u[2] + u[3]*u[3]) / rho
		p := c.C2 * (u[4] - q)
		var f [5]float64
		f[0] = u[cv]
		for r := 1; r <= 3; r++ {
			f[r] = u[r] * vel
			if r == cv {
				f[r] += p
			}
		}
		f[4] = (c.C1*u[4] - c.C2*q) * vel
		return f
	}
	for cv := 1; cv <= 3; cv++ {
		var fjac, njac [25]float64 // fresh per direction: only non-zeros are written
		rhoI := 1.0 / state[0]
		sq := 0.5 * (state[1]*state[1] + state[2]*state[2] + state[3]*state[3]) * rhoI
		qs := sq * rhoI
		FluxViscJacobians(&c, &state, rhoI, qs, sq, cv, &fjac, &njac)
		const h = 1e-7
		for col := 0; col < 5; col++ {
			up := state
			um := state
			up[col] += h
			um[col] -= h
			fp := flux(up, cv)
			fm := flux(um, cv)
			for row := 0; row < 5; row++ {
				want := (fp[row] - fm[row]) / (2 * h)
				got := fjac[row+5*col]
				if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("cv=%d dF[%d]/du[%d]: analytic %v vs numeric %v", cv, row, col, got, want)
				}
			}
		}
	}
}

func TestViscousJacobianAnnihilatesUniformFlow(t *testing.T) {
	// Viscous terms vanish for uniform flow: N(u)*u must reproduce the
	// known contraction (the viscous flux is linear in the primitive
	// gradients; N itself encodes d(viscous flux)/du at zero gradient,
	// whose action on u yields zero for rows 1-3 momenta combination).
	c := SetConstants(12, 0.01)
	state := [5]float64{1.1, 0.3, 0.2, -0.4, 2.5}
	var fjac, njac [25]float64
	rhoI := 1.0 / state[0]
	sq := 0.5 * (state[1]*state[1] + state[2]*state[2] + state[3]*state[3]) * rhoI
	qs := sq * rhoI
	FluxViscJacobians(&c, &state, rhoI, qs, sq, 1, &fjac, &njac)
	// Row 1 (continuity) of N is identically zero.
	for col := 0; col < 5; col++ {
		if njac[0+5*col] != 0 {
			t.Fatalf("continuity row of njac nonzero at col %d", col)
		}
	}
	// Momentum rows: N(r,0)*rho + N(r,r)*u_r = 0 (derivative of
	// coef*velocity w.r.t. conserved vars contracted with the state).
	for r := 1; r <= 3; r++ {
		v := njac[r+5*0]*state[0] + njac[r+5*r]*state[r]
		if math.Abs(v) > 1e-14 {
			t.Fatalf("momentum row %d: N*u = %v, want 0", r, v)
		}
	}
}

// computeRHSBodies is ComputeRHS with one region per body, every body
// joined before the next starts: the order the fused region must
// reproduce.
func computeRHSBodies(f *Field, c *Consts, tm *team.Team) {
	f.stC, f.stTm = c, tm
	for _, body := range []func(int){f.primBody, f.xiBody, f.etaBody, f.zetaBody, f.scaleBody} {
		tm.Run(body)
	}
}

// TestComputeRHSOneRegionMatchesSeven: the fused region drops the joins
// between loops that cannot conflict and keeps a barrier where they
// can; which is which depends on the schedule and on how [0,n) and
// [1,n-1) split over the team. Every schedule and team size — below,
// at and above the six interior planes — must give the bits of the
// bodies run as joined regions (seven before the zeta dissipation
// joined the zeta body and the forcing copy the primitives), twice over
// so a second call's primBody cannot overtake the first call's readers.
func TestComputeRHSOneRegionMatchesSeven(t *testing.T) {
	const n = 8
	c := SetConstants(n, 0.01)
	want := NewField(n, true)
	want.Initialize(&c)
	want.ExactRHS(&c)
	serial := team.New(1)
	defer serial.Close()
	computeRHSBodies(want, &c, serial)
	want.Add(serial)
	computeRHSBodies(want, &c, serial)
	for _, threads := range []int{1, 2, 3, 6, 7, 9} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
			f := NewField(n, true)
			f.Initialize(&c)
			f.ExactRHS(&c)
			tm := team.New(threads, team.WithSchedule(sched))
			f.ComputeRHS(&c, tm)
			f.Add(tm)
			f.ComputeRHS(&c, tm)
			tm.Close()
			got := namedRows(f)
			for name, w := range namedRows(want) {
				for i := range w {
					if math.Float64bits(got[name][i]) != math.Float64bits(w[i]) {
						t.Fatalf("%d threads, %s: %s[%d] = %v, joined regions give %v",
							threads, sched, name, i, got[name][i], w[i])
					}
				}
			}
		}
	}
}
