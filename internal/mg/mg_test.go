package mg

import (
	"math"
	"testing"

	"npbgo/internal/kernel"
	"npbgo/internal/rowcheck"
	"npbgo/internal/team"
)

func TestClassSVerifies(t *testing.T) {
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	res := b.Run()
	if !res.Verify.Passed() {
		t.Fatalf("class S failed verification:\n%s", res.Verify)
	}
}

func TestParallelMatchesReference(t *testing.T) {
	for _, n := range []int{2, 4} {
		b, err := New('S', n, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		if res := b.Run(); !res.Verify.Passed() {
			t.Fatalf("threads=%d failed:\n%s", n, res.Verify)
		}
	}
}

func TestZran3ChargeCount(t *testing.T) {
	l := level{18, 18, 18}
	z := make([]float64, l.len())
	plantCharges(z, l, 1, team.Static)
	plus, minus, other := 0, 0, 0
	for i3 := 1; i3 < l.n3-1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			for i1 := 1; i1 < l.n1-1; i1++ {
				switch z[l.at(i1, i2, i3)] {
				case 1:
					plus++
				case -1:
					minus++
				case 0:
				default:
					other++
				}
			}
		}
	}
	if plus != 10 || minus != 10 || other != 0 {
		t.Fatalf("charges: +%d -%d other %d, want 10/10/0", plus, minus, other)
	}
}

func TestZran3Deterministic(t *testing.T) {
	l := level{10, 10, 10}
	z1 := make([]float64, l.len())
	z2 := make([]float64, l.len())
	plantCharges(z1, l, 1, team.Static)
	plantCharges(z2, l, 1, team.Static)
	for i := range z1 {
		if z1[i] != z2[i] {
			t.Fatalf("zran3 not deterministic at %d", i)
		}
	}
}

func TestComm3Periodic(t *testing.T) {
	l := level{6, 6, 6}
	u := make([]float64, l.len())
	for i3 := 1; i3 < 5; i3++ {
		for i2 := 1; i2 < 5; i2++ {
			for i1 := 1; i1 < 5; i1++ {
				u[l.at(i1, i2, i3)] = float64(100*i1 + 10*i2 + i3)
			}
		}
	}
	comm3(u, l)
	if u[l.at(0, 2, 3)] != u[l.at(4, 2, 3)] {
		t.Fatal("x ghost not periodic")
	}
	if u[l.at(5, 2, 3)] != u[l.at(1, 2, 3)] {
		t.Fatal("x ghost (high) not periodic")
	}
	if u[l.at(2, 0, 3)] != u[l.at(2, 4, 3)] {
		t.Fatal("y ghost not periodic")
	}
	if u[l.at(2, 3, 5)] != u[l.at(2, 3, 1)] {
		t.Fatal("z ghost not periodic")
	}
}

func TestResidZeroFieldGivesRHS(t *testing.T) {
	// With u = 0, r = v on the interior.
	l := level{6, 6, 6}
	tm := team.New(1)
	defer tm.Close()
	u := make([]float64, l.len())
	v := make([]float64, l.len())
	r := make([]float64, l.len())
	for i := range v {
		v[i] = float64(i%7) * 0.25
	}
	a := [4]float64{-8.0 / 3.0, 0, 1.0 / 6.0, 1.0 / 12.0}
	newCycle(1, l.n1, a, [4]float64{}).resid(tm, r, u, v, l)
	for i3 := 1; i3 < 5; i3++ {
		for i2 := 1; i2 < 5; i2++ {
			for i1 := 1; i1 < 5; i1++ {
				off := l.at(i1, i2, i3)
				if r[off] != v[off] {
					t.Fatalf("r != v at %d: %v vs %v", off, r[off], v[off])
				}
			}
		}
	}
}

func TestResidConstantFieldAnnihilated(t *testing.T) {
	// The operator's stencil weights sum to zero (a0 + 6*0 + 12*a2 +
	// 8*a3 with a=(-8/3,0,1/6,1/12) gives -8/3 + 2 + 2/3 = 0), so a
	// constant u yields r = v.
	l := level{8, 8, 8}
	tm := team.New(1)
	defer tm.Close()
	u := make([]float64, l.len())
	v := make([]float64, l.len())
	r := make([]float64, l.len())
	for i := range u {
		u[i] = 4.2
	}
	a := [4]float64{-8.0 / 3.0, 0, 1.0 / 6.0, 1.0 / 12.0}
	newCycle(1, l.n1, a, [4]float64{}).resid(tm, r, u, v, l)
	for i3 := 1; i3 < 7; i3++ {
		for i2 := 1; i2 < 7; i2++ {
			for i1 := 1; i1 < 7; i1++ {
				if got := r[l.at(i1, i2, i3)]; math.Abs(got) > 1e-13 {
					t.Fatalf("constant field not annihilated: r=%v", got)
				}
			}
		}
	}
}

func TestRprj3ConstantField(t *testing.T) {
	// Full-weighting of a constant field: weights 0.5 + 6*0.25 + 12*.125
	// + 8*.0625 = 4, so a constant c restricts to 4c.
	fine := level{10, 10, 10}
	coarse := level{6, 6, 6}
	tm := team.New(1)
	defer tm.Close()
	r := make([]float64, fine.len())
	s := make([]float64, coarse.len())
	for i := range r {
		r[i] = 1.5
	}
	newCycle(1, fine.n1, [4]float64{}, [4]float64{}).rprj3(tm, r, fine, s, coarse)
	for i3 := 1; i3 < 5; i3++ {
		for i2 := 1; i2 < 5; i2++ {
			for i1 := 1; i1 < 5; i1++ {
				if got := s[coarse.at(i1, i2, i3)]; math.Abs(got-6.0) > 1e-13 {
					t.Fatalf("restriction of constant 1.5 = %v, want 6", got)
				}
			}
		}
	}
}

func TestVCyclesReduceResidual(t *testing.T) {
	// Independent of the pinned verification value, each V-cycle must
	// shrink the residual substantially (MG's defining property).
	b, err := New('S', 1, kernel.Env{})
	if err != nil {
		t.Fatal(err)
	}
	tm := team.New(1)
	defer tm.Close()
	lt := b.p.lt
	fin := b.lv[lt]
	nxyz := float64(b.p.nx) * float64(b.p.nx) * float64(b.p.nx)
	zero3(b.u[lt])
	rhs := b.cy.findCharges(tm, fin)
	rhs.plant(b.v, fin)
	b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
	prev, _ := b.cy.norm2u3(tm, b.r[lt], fin, nxyz)
	for it := 0; it < 4; it++ {
		b.mg3P(tm)
		b.cy.resid(tm, b.r[lt], b.u[lt], b.v, fin)
		cur, _ := b.cy.norm2u3(tm, b.r[lt], fin, nxyz)
		if cur > prev*0.5 {
			t.Fatalf("cycle %d: residual %v did not drop enough from %v", it, cur, prev)
		}
		prev = cur
	}
}

func TestInterpConstantCoarseField(t *testing.T) {
	// Trilinear prolongation of a constant coarse correction adds that
	// constant at every fine point (all interpolation weights sum to 1
	// per target point).
	coarse := level{6, 6, 6}
	fine := level{10, 10, 10}
	tm := team.New(1)
	defer tm.Close()
	z := make([]float64, coarse.len())
	for i := range z {
		z[i] = 2.5
	}
	u := make([]float64, fine.len())
	newCycle(1, fine.n1, [4]float64{}, [4]float64{}).interp(tm, z, coarse, u, fine)
	// Interior fine points that interp writes (indices below 2*(mm-1))
	// must all have received exactly 2.5.
	for k := 0; k < 8; k++ {
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				if got := u[fine.at(i, j, k)]; math.Abs(got-2.5) > 1e-13 {
					t.Fatalf("interp constant at (%d,%d,%d) = %v", i, j, k, got)
				}
			}
		}
	}
}

// TestPortableLanesReproduceGolden runs MG.S on the portable path
// (simd.Width 1) and the AVX one (4) at one and two threads and compares the
// verification printout with the one recorded in
// testdata/bitidentity.golden (rowcheck.Golden).
func TestPortableLanesReproduceGolden(t *testing.T) {
	rowcheck.Golden(t, "MG", func(threads int) string {
		b, err := New('S', threads, kernel.Env{})
		if err != nil {
			t.Fatal(err)
		}
		return b.RunResult().Verify.String()
	})
}
