package bt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"npbgo/internal/kernel"
	"npbgo/internal/nscore"
	"npbgo/internal/team"
)

func TestExactSolutionBoundaryValues(t *testing.T) {
	var d [5]float64
	nscore.ExactSolution(0, 0, 0, &d)
	// At the origin only the constant coefficients survive.
	want := [5]float64{2.0, 1.0, 2.0, 2.0, 5.0}
	for m := 0; m < 5; m++ {
		if d[m] != want[m] {
			t.Fatalf("exact(0,0,0)[%d] = %v, want %v", m, d[m], want[m])
		}
	}
}

func TestInitializeMatchesExactOnBoundaries(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	b.f.Initialize(&b.c)
	var ue [5]float64
	n := b.n
	// Check one point on each face.
	checks := [][3]int{{0, 3, 4}, {n - 1, 3, 4}, {3, 0, 4}, {3, n - 1, 4}, {3, 4, 0}, {3, 4, n - 1}}
	for _, p := range checks {
		i, j, k := p[0], p[1], p[2]
		nscore.ExactSolution(float64(i)*b.c.Dnxm1, float64(j)*b.c.Dnym1, float64(k)*b.c.Dnzm1, &ue)
		p := b.f.SAt(i, j, k)
		for m, u := range &b.f.U {
			if u[p] != ue[m] {
				t.Fatalf("boundary (%d,%d,%d) component %d: %v != exact %v", i, j, k, m, u[p], ue[m])
			}
		}
	}
}

// TestForcingBalancesExactSolution is the key analytic check on the
// whole spatial discretization: when u IS the exact solution, the rhs
// (forcing + fluxes + dissipation) must vanish identically, because the
// forcing was constructed as exactly minus the operator applied to the
// exact solution.
func TestForcingBalancesExactSolution(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	// Set u to the exact solution everywhere.
	var ue [5]float64
	n := b.n
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				nscore.ExactSolution(float64(i)*b.c.Dnxm1, float64(j)*b.c.Dnym1, float64(k)*b.c.Dnzm1, &ue)
				for m, u := range &b.f.U {
					u[b.f.SAt(i, j, k)] = ue[m]
				}
			}
		}
	}
	b.f.ExactRHS(&b.c)
	b.f.ComputeRHS(&b.c, tm)
	worst := 0.0
	for k := 1; k < n-1; k++ {
		for j := 1; j < n-1; j++ {
			for i := 1; i < n-1; i++ {
				for _, r := range &b.f.Rhs {
					if a := math.Abs(r[b.f.SAt(i, j, k)]); a > worst {
						worst = a
					}
				}
			}
		}
	}
	if worst > 1e-11 {
		t.Fatalf("rhs of exact solution not zero: max |rhs| = %v", worst)
	}
}

func TestBinvcrhsSolvesSystem(t *testing.T) {
	// After binvcrhs, c and r must equal B^-1*C and B^-1*r for the
	// original B. Verify by multiplying back.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var b0, c0 [25]float64
		var r0 [5]float64
		for i := range b0 {
			b0[i] = rng.Float64() - 0.5
		}
		for d := 0; d < 5; d++ {
			b0[d+5*d] += 4.0 // diagonal dominance, as in BT's blocks
		}
		for i := range c0 {
			c0[i] = rng.Float64() - 0.5
		}
		for i := range r0 {
			r0[i] = rng.Float64() - 0.5
		}
		bw, cw, rw := b0, c0, r0
		binvcrhs(&bw, &cw, &rw)
		// Check B*cw == c0 and B*rw == r0.
		for n := 0; n < 5; n++ {
			for m := 0; m < 5; m++ {
				sum := 0.0
				for q := 0; q < 5; q++ {
					sum += b0[m+5*q] * cw[q+5*n]
				}
				if math.Abs(sum-c0[m+5*n]) > 1e-10 {
					t.Fatalf("trial %d: B*(B^-1 C) != C at (%d,%d): %v vs %v", trial, m, n, sum, c0[m+5*n])
				}
			}
		}
		for m := 0; m < 5; m++ {
			sum := 0.0
			for q := 0; q < 5; q++ {
				sum += b0[m+5*q] * rw[q]
			}
			if math.Abs(sum-r0[m]) > 1e-10 {
				t.Fatalf("trial %d: B*(B^-1 r) != r at %d", trial, m)
			}
		}
	}
}

func TestMatmulMatvecSub(t *testing.T) {
	var a, bb, c [25]float64
	for i := range a {
		a[i] = float64(i%7) * 0.25
		bb[i] = float64(i%5) * 0.5
		c[i] = 1.0
	}
	cRef := c
	matmulSub(&a, &bb, &c)
	for n := 0; n < 5; n++ {
		for m := 0; m < 5; m++ {
			want := cRef[m+5*n]
			for q := 0; q < 5; q++ {
				want -= a[m+5*q] * bb[q+5*n]
			}
			if math.Abs(c[m+5*n]-want) > 1e-14 {
				t.Fatalf("matmulSub (%d,%d): %v vs %v", m, n, c[m+5*n], want)
			}
		}
	}
	r1 := [5]float64{1, 2, 3, 4, 5}
	r2 := [5]float64{5, 4, 3, 2, 1}
	r2Ref := r2
	matvecSub(&a, &r1, &r2)
	for m := 0; m < 5; m++ {
		want := r2Ref[m]
		for q := 0; q < 5; q++ {
			want -= a[m+5*q] * r1[q]
		}
		if math.Abs(r2[m]-want) > 1e-14 {
			t.Fatalf("matvecSub %d: %v vs %v", m, r2[m], want)
		}
	}
}

// The loop forms of the four block primitives, as they stood before
// blocks.go wrote them out in full: the reference the unrolled kernels
// must match bit for bit.

func refBinvcrhs(blk, c, r []float64) {
	for p := 0; p < 5; p++ {
		pivot := 1.0 / blk[p+5*p]
		for n := p + 1; n < 5; n++ {
			blk[p+5*n] *= pivot
		}
		for n := 0; n < 5; n++ {
			c[p+5*n] *= pivot
		}
		r[p] *= pivot
		for q := 0; q < 5; q++ {
			if q == p {
				continue
			}
			coeff := blk[q+5*p]
			for n := p + 1; n < 5; n++ {
				blk[q+5*n] -= coeff * blk[p+5*n]
			}
			for n := 0; n < 5; n++ {
				c[q+5*n] -= coeff * c[p+5*n]
			}
			r[q] -= coeff * r[p]
		}
	}
}

func refBinvrhs(blk, r []float64) {
	for p := 0; p < 5; p++ {
		pivot := 1.0 / blk[p+5*p]
		for n := p + 1; n < 5; n++ {
			blk[p+5*n] *= pivot
		}
		r[p] *= pivot
		for q := 0; q < 5; q++ {
			if q == p {
				continue
			}
			coeff := blk[q+5*p]
			for n := p + 1; n < 5; n++ {
				blk[q+5*n] -= coeff * blk[p+5*n]
			}
			r[q] -= coeff * r[p]
		}
	}
}

func refMatvecSub(a, r1, r2 []float64) {
	for m := 0; m < 5; m++ {
		r2[m] -= a[m+0]*r1[0] + a[m+5]*r1[1] + a[m+10]*r1[2] +
			a[m+15]*r1[3] + a[m+20]*r1[4]
	}
}

func refMatmulSub(a, bblk, c []float64) {
	for n := 0; n < 5; n++ {
		b0 := bblk[0+5*n]
		b1 := bblk[1+5*n]
		b2 := bblk[2+5*n]
		b3 := bblk[3+5*n]
		b4 := bblk[4+5*n]
		for m := 0; m < 5; m++ {
			c[m+5*n] -= a[m+0]*b0 + a[m+5]*b1 + a[m+10]*b2 +
				a[m+15]*b3 + a[m+20]*b4
		}
	}
}

// TestUnrolledPrimitivesBitIdenticalToLoops runs the unrolled kernels
// and the loop reference on 1,000 seeded random diagonally dominant
// blocks and demands identical bits: unrolling kept every operation and
// its order, which is what keeps BT's verification values unchanged.
func TestUnrolledPrimitivesBitIdenticalToLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	fill := func(v []float64) {
		for i := range v {
			v[i] = rng.Float64() - 0.5
		}
	}
	same := func(trial int, name string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: %s[%d] = %v, loop reference %v", trial, name, i, got[i], want[i])
			}
		}
	}
	for trial := 0; trial < 1000; trial++ {
		var blk, c, a [25]float64
		var r, r1 [5]float64
		fill(blk[:])
		fill(c[:])
		fill(a[:])
		fill(r[:])
		fill(r1[:])
		for d := 0; d < 5; d++ {
			blk[d+5*d] += 4.0
		}

		gb, gc, gr := blk, c, r
		wb, wc, wr := blk, c, r
		binvcrhs(&gb, &gc, &gr)
		refBinvcrhs(wb[:], wc[:], wr[:])
		same(trial, "binvcrhs blk", gb[:], wb[:])
		same(trial, "binvcrhs c", gc[:], wc[:])
		same(trial, "binvcrhs r", gr[:], wr[:])

		gb, gr = blk, r
		wb, wr = blk, r
		binvrhs(&gb, &gr)
		refBinvrhs(wb[:], wr[:])
		same(trial, "binvrhs blk", gb[:], wb[:])
		same(trial, "binvrhs r", gr[:], wr[:])

		gc, wc = c, c
		matmulSub(&a, &blk, &gc)
		refMatmulSub(a[:], blk[:], wc[:])
		same(trial, "matmulSub", gc[:], wc[:])

		gr, wr = r, r
		matvecSub(&a, &r1, &gr)
		refMatvecSub(a[:], r1[:], wr[:])
		same(trial, "matvecSub", gr[:], wr[:])
	}
}

// TestSolveLineAgainstDenseSolve checks the block Thomas algorithm on
// random diagonally dominant block-tridiagonal systems, a different one
// in each lane of a group, by comparing each lane's solution with a
// dense Gaussian elimination of its assembled system. The blocks go in
// cell by cell, as solveGroup assembles them.
func TestSolveLineAgainstDenseSolve(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cells = 6
		const dim = 5 * cells
		g := newGroup(cells)
		g.n = 8
		// Random diagonally dominant blocks; first and last cells are
		// identity rows as lhsinit makes them.
		aa, bb, cc := make([]blk8, cells), make([]blk8, cells), make([]blk8, cells)
		for _, l := range [2]int{0, cells - 1} {
			g.boundary(l)
			aa[l], bb[l], cc[l] = g.aa, g.bb, g.cc[l]
		}
		for l := 1; l < cells-1; l++ {
			for e := 0; e < 25; e++ {
				for q := 0; q < 8; q++ {
					aa[l][e][q] = 0.2 * (rng.Float64() - 0.5)
					bb[l][e][q] = 0.2 * (rng.Float64() - 0.5)
					cc[l][e][q] = 0.2 * (rng.Float64() - 0.5)
				}
			}
			for d := 0; d < 5; d++ {
				for q := 0; q < 8; q++ {
					bb[l][d+5*d][q] += 3.0
				}
			}
		}
		for l := range g.rhs {
			for m := 0; m < 5; m++ {
				for q := 0; q < 8; q++ {
					g.rhs[l][m][q] = rng.Float64() - 0.5
				}
			}
		}

		// Assemble each lane's dense system before the solve overwrites
		// the blocks.
		var dense, rhs [8][]float64
		for q := range dense {
			dense[q] = make([]float64, dim*dim)
			rhs[q] = make([]float64, dim)
			for l := 0; l < cells; l++ {
				for m := 0; m < 5; m++ {
					rhs[q][5*l+m] = g.rhs[l][m][q]
					row := (5*l + m) * dim // dense is row-major, unlike the grid arrays
					for n := 0; n < 5; n++ {
						if l > 0 {
							dense[q][row+5*(l-1)+n] = aa[l][m+5*n][q]
						}
						dense[q][row+5*l+n] = bb[l][m+5*n][q]
						if l < cells-1 {
							dense[q][row+5*(l+1)+n] = cc[l][m+5*n][q]
						}
					}
				}
			}
		}

		for l := 0; l < cells; l++ {
			g.aa, g.bb, g.cc[l] = aa[l], bb[l], cc[l]
			g.eliminate(l, cells-1)
		}
		g.backSubstitute(cells - 1)
		for q := range dense {
			want := denseSolve(dense[q], rhs[q], dim)
			for i := 0; i < dim; i++ {
				if math.Abs(g.rhs[i/5][i%5][q]-want[i]) > 1e-8 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// denseSolve is a plain partial-pivoting Gaussian elimination used only
// as a test oracle.
func denseSolve(a []float64, b []float64, n int) []float64 {
	x := append([]float64(nil), b...)
	for col := 0; col < n; col++ {
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r*n+col]) > math.Abs(a[p*n+col]) {
				p = r
			}
		}
		if p != col {
			for c := 0; c < n; c++ {
				a[col*n+c], a[p*n+c] = a[p*n+c], a[col*n+c]
			}
			x[col], x[p] = x[p], x[col]
		}
		piv := a[col*n+col]
		for r := col + 1; r < n; r++ {
			f := a[r*n+col] / piv
			for c := col; c < n; c++ {
				a[r*n+c] -= f * a[col*n+c]
			}
			x[r] -= f * x[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		s := x[r]
		for c := r + 1; c < n; c++ {
			s -= a[r*n+c] * x[c]
		}
		x[r] = s / a[r*n+r]
	}
	return x
}

func TestErrorDecreasesOverSteps(t *testing.T) {
	// The ADI iteration drives u toward the steady solution of the
	// forced system; the solution error must decrease from its initial
	// value over the run.
	b, _ := New('S', 1, kernel.Env{})
	tm := team.New(1)
	defer tm.Close()
	b.f.Initialize(&b.c)
	b.f.ExactRHS(&b.c)
	e0 := b.f.ErrorNorm(&b.c)
	for s := 0; s < 20; s++ {
		b.adi(tm)
	}
	e1 := b.f.ErrorNorm(&b.c)
	for m := 0; m < 5; m++ {
		if e1[m] >= e0[m] {
			t.Fatalf("component %d error grew: %v -> %v", m, e0[m], e1[m])
		}
	}
	// And the field must stay finite.
	for _, u := range &b.f.U {
		for _, v := range u {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("field blew up")
			}
		}
	}
}

// TestParallelMatchesSerialBitwise: every line solve writes its own
// rhs line and the block kernels run the same operations whichever
// worker and whichever lane of a group runs them, so the field after
// five ADI steps must be bit-identical for every team size and loop
// schedule. Thirteen threads is more than class S's ten interior
// planes: some workers get no lines and must touch nothing.
func TestParallelMatchesSerialBitwise(t *testing.T) {
	run := func(threads int, sched team.Schedule) [5][]float64 {
		b, _ := New('S', threads, kernel.Env{})
		tm := team.New(threads, team.WithSchedule(sched))
		defer tm.Close()
		b.f.Initialize(&b.c)
		b.f.ExactRHS(&b.c)
		for s := 0; s < 5; s++ {
			b.adi(tm)
		}
		return b.f.U
	}
	want := run(1, team.Static)
	for _, threads := range []int{1, 2, 3, 4, 7, 13} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic, team.Guided, team.Stealing} {
			got := run(threads, sched)
			for m := range want {
				for i := range want[m] {
					if got[m][i] != want[m][i] {
						t.Fatalf("u%d[%d] at %d threads under %s differs from serial: %v vs %v",
							m, i, threads, sched, got[m][i], want[m][i])
					}
				}
			}
		}
	}
}

func TestClassSGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full class S run in -short mode")
	}
	b, _ := New('S', 1, kernel.Env{})
	res := b.RunResult()
	if res.Verify.Failed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
	for m := 0; m < 5; m++ {
		if math.IsNaN(res.XCR[m]) || math.IsNaN(res.XCE[m]) {
			t.Fatal("NaN in verification norms")
		}
	}
}

// The line set-up the lane kernels replaced, kept as the oracle of
// TestLineSetupMatchesOracle: nscore.FluxViscJacobians at every cell of
// a line into blocks cleared once per direction, then assembleLHS's
// loops over the 25 entries and the diffusion diagonal.

type lineScratch struct {
	fjac, njac [][25]float64 // n blocks each
	aa, bb, cc [][25]float64 // n blocks each
}

func newLineScratch(n int) *lineScratch {
	return &lineScratch{
		fjac: make([][25]float64, n),
		njac: make([][25]float64, n),
		aa:   make([][25]float64, n),
		bb:   make([][25]float64, n),
		cc:   make([][25]float64, n),
	}
}

func (b *Benchmark) buildJacobians(ls *lineScratch, l, p, cv int) {
	u := &b.f.U
	uvec := [5]float64{u[0][p], u[1][p], u[2][p], u[3][p], u[4][p]}
	nscore.FluxViscJacobians(&b.c, &uvec, b.f.RhoI[p], b.f.Qs[p], b.f.Square[p],
		cv, &ls.fjac[l], &ls.njac[l])
}

// oracleDir is the old dirSpec: dt*t?1, dt*t?2 and d?1..d?5 unfolded.
type oracleDir struct {
	tmp1, tmp2 float64
	d          [5]float64
}

func (b *Benchmark) assembleLHS(ls *lineScratch, isize int, ds *oracleDir) {
	for _, i := range [2]int{0, isize} {
		ls.aa[i] = [25]float64{}
		ls.bb[i] = [25]float64{0: 1, 6: 1, 12: 1, 18: 1, 24: 1}
		ls.cc[i] = [25]float64{}
	}
	t1, t2 := ds.tmp1, ds.tmp2
	for l := 1; l <= isize-1; l++ {
		am, bm, cm := &ls.aa[l], &ls.bb[l], &ls.cc[l]
		fm1, fp1 := &ls.fjac[l-1], &ls.fjac[l+1]
		nm1, nc, np1 := &ls.njac[l-1], &ls.njac[l], &ls.njac[l+1]
		for e := 0; e < 25; e++ {
			am[e] = -t2*fm1[e] - t1*nm1[e]
			bm[e] = t1 * 2.0 * nc[e]
			cm[e] = t2*fp1[e] - t1*np1[e]
		}
		for m := 0; m < 5; m++ {
			e := m + 5*m
			am[e] -= t1 * ds.d[m]
			bm[e] += 1.0 + t1*2.0*ds.d[m]
			cm[e] -= t1 * ds.d[m]
		}
	}
}
