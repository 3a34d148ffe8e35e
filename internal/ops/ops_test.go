package ops

import (
	"math"
	"testing"

	"npbgo/internal/grid"
	"npbgo/internal/team"
)

// smallDim keeps unit tests fast; correctness is size-independent.
var smallDim = grid.Dim3{N1: 9, N2: 8, N3: 10}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-13*scale
}

func TestAssignmentCopies(t *testing.T) {
	w := NewWorkload(smallDim)
	w.Assignment()
	for i := range w.B {
		if w.A[i] != w.B[i] {
			t.Fatalf("A[%d]=%v != B[%d]=%v", i, w.A[i], i, w.B[i])
		}
	}
}

func TestNestedMatchesLinear(t *testing.T) {
	w := NewWorkload(smallDim)
	d := w.D

	w.Assignment()
	w.AssignmentNested()
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				if w.A[d.At(i1, i2, i3)] != w.AN[i3][i2][i1] {
					t.Fatalf("assignment mismatch at (%d,%d,%d)", i1, i2, i3)
				}
			}
		}
	}

	w.FirstOrder()
	w.FirstOrderNested()
	for i3 := 1; i3 < d.N3-1; i3++ {
		for i2 := 1; i2 < d.N2-1; i2++ {
			for i1 := 1; i1 < d.N1-1; i1++ {
				lin, nst := w.A[d.At(i1, i2, i3)], w.AN[i3][i2][i1]
				if !almostEqual(lin, nst) {
					t.Fatalf("first-order mismatch at (%d,%d,%d): %v vs %v", i1, i2, i3, lin, nst)
				}
			}
		}
	}

	w.SecondOrder()
	w.SecondOrderNested()
	for i3 := 2; i3 < d.N3-2; i3++ {
		for i2 := 2; i2 < d.N2-2; i2++ {
			for i1 := 2; i1 < d.N1-2; i1++ {
				lin, nst := w.A[d.At(i1, i2, i3)], w.AN[i3][i2][i1]
				if !almostEqual(lin, nst) {
					t.Fatalf("second-order mismatch at (%d,%d,%d): %v vs %v", i1, i2, i3, lin, nst)
				}
			}
		}
	}
}

func TestFirstOrderConstantFieldInvariant(t *testing.T) {
	// The stencil weights sum to 1, so a constant field must map to the
	// same constant on interior points.
	w := NewWorkload(smallDim)
	for i := range w.B {
		w.B[i] = 3.5
	}
	w.FirstOrder()
	d := w.D
	for i3 := 1; i3 < d.N3-1; i3++ {
		for i2 := 1; i2 < d.N2-1; i2++ {
			for i1 := 1; i1 < d.N1-1; i1++ {
				if got := w.A[d.At(i1, i2, i3)]; !almostEqual(got, 3.5) {
					t.Fatalf("constant field changed to %v at (%d,%d,%d)", got, i1, i2, i3)
				}
			}
		}
	}
}

func TestSecondOrderConstantFieldInvariant(t *testing.T) {
	w := NewWorkload(smallDim)
	for i := range w.B {
		w.B[i] = -2.0
	}
	w.SecondOrder()
	d := w.D
	for i3 := 2; i3 < d.N3-2; i3++ {
		for i2 := 2; i2 < d.N2-2; i2++ {
			for i1 := 2; i1 < d.N1-2; i1++ {
				if got := w.A[d.At(i1, i2, i3)]; !almostEqual(got, -2.0) {
					t.Fatalf("constant field changed to %v", got)
				}
			}
		}
	}
}

func TestFirstOrderHandComputed(t *testing.T) {
	w := NewWorkload(smallDim)
	d := w.D
	w.FirstOrder()
	i1, i2, i3 := 3, 4, 5
	b := func(a, bb, c int) float64 { return w.B[d.At(a, bb, c)] }
	want := cen*b(i1, i2, i3) +
		adj*(b(i1-1, i2, i3)+b(i1+1, i2, i3)+b(i1, i2-1, i3)+b(i1, i2+1, i3)+b(i1, i2, i3-1)+b(i1, i2, i3+1))
	if got := w.A[d.At(i1, i2, i3)]; !almostEqual(got, want) {
		t.Fatalf("stencil at interior point = %v, want %v", got, want)
	}
}

func TestMatVecHandComputed(t *testing.T) {
	w := NewWorkload(smallDim)
	w.MatVec()
	i1, i2, i3 := 2, 3, 4
	mo := w.DM.At(0, 0, i1, i2, i3)
	vo := w.DV.At(0, i1, i2, i3)
	for r := 0; r < 5; r++ {
		want := 0.0
		for c := 0; c < 5; c++ {
			want += w.M[mo+r+5*c] * w.V[vo+c]
		}
		if got := w.W[vo+r]; !almostEqual(got, want) {
			t.Fatalf("row %d: %v, want %v", r, got, want)
		}
	}
}

func TestMatVecIdentityMatrix(t *testing.T) {
	w := NewWorkload(smallDim)
	for i := range w.M {
		w.M[i] = 0
	}
	d := w.D
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				for r := 0; r < 5; r++ {
					w.M[w.DM.At(r, r, i1, i2, i3)] = 1
				}
			}
		}
	}
	w.MatVec()
	for i := range w.V {
		if w.W[i] != w.V[i] {
			t.Fatalf("identity matvec changed element %d: %v -> %v", i, w.V[i], w.W[i])
		}
	}
}

func TestReduceSumMatchesNaive(t *testing.T) {
	w := NewWorkload(smallDim)
	want := 0.0
	for _, v := range w.R {
		want += v
	}
	if got := w.ReduceSum(); got != want {
		t.Fatalf("ReduceSum = %v, want %v", got, want)
	}
}

// TestParallelVariantsMatchSerial: on even and odd team sizes, under the
// static and a chunk-dealing schedule, the element-wise operations equal
// their serial forms bit for bit, and the reduction equals the serial
// sums of its static blocks added in block order — so it has the same
// bits under every schedule of one team size.
func TestParallelVariantsMatchSerial(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		for _, sched := range []team.Schedule{team.Static, team.Dynamic} {
			tm := team.New(n, team.WithSchedule(sched))

			ws := NewWorkload(smallDim)
			wp := NewWorkload(smallDim)

			ws.Assignment()
			wp.Parallel(Assign, tm)
			compare(t, "assignment", ws.A, wp.A)

			ws.FirstOrder()
			wp.Parallel(Stencil1, tm)
			compare(t, "first-order", ws.A, wp.A)

			ws.SecondOrder()
			wp.Parallel(Stencil2, tm)
			compare(t, "second-order", ws.A, wp.A)

			ws.MatVec()
			wp.Parallel(MatVec5, tm)
			compare(t, "matvec", ws.W, wp.W)

			want := 0.0
			for b := 0; b < n; b++ {
				lo, hi := team.Block(0, len(ws.R), n, b)
				want += sumRange(ws.R, lo, hi)
			}
			wp.Parallel(Sum, tm)
			if got := tm.PartialSum(); got != want {
				t.Fatalf("threads=%d %s reduce: %v, block-order sum %v", n, sched, got, want)
			}
			tm.Close()
		}
	}
}

func compare(t *testing.T, name string, a, b grid.Vec) {
	t.Helper()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, a[i], b[i])
		}
	}
}

func TestDefaultDimMatchesPaper(t *testing.T) {
	if DefaultDim.N1 != 81 || DefaultDim.N2 != 81 || DefaultDim.N3 != 100 {
		t.Fatalf("DefaultDim = %+v, want 81x81x100", DefaultDim)
	}
}

func TestMatVecNestedMatchesLinear(t *testing.T) {
	w := NewWorkload(smallDim)
	w.MatVec()
	w.MatVecNested()
	d := w.D
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				for r := 0; r < 5; r++ {
					lin := w.W[w.DV.At(r, i1, i2, i3)]
					nst := w.WN[i3][i2][i1][r]
					if lin != nst {
						t.Fatalf("matvec nested mismatch at (%d,%d,%d,%d): %v vs %v", r, i1, i2, i3, lin, nst)
					}
				}
			}
		}
	}
}

func TestReduceSumNestedMatchesLinear(t *testing.T) {
	w := NewWorkload(smallDim)
	lin := w.ReduceSum()
	nst := w.ReduceSumNested()
	if math.Abs(lin-nst) > 1e-9*math.Abs(lin) {
		t.Fatalf("reduce nested %v vs linear %v", nst, lin)
	}
}

func TestFlopCountsPositiveAndScale(t *testing.T) {
	small := NewWorkload(grid.Dim3{N1: 9, N2: 9, N3: 9})
	big := NewWorkload(grid.Dim3{N1: 17, N2: 17, N3: 17})
	if small.FlopsFirstOrder() <= 0 || small.FlopsSecondOrder() <= 0 ||
		small.FlopsMatVec() <= 0 || small.FlopsReduceSum() <= 0 {
		t.Fatal("flop counts must be positive")
	}
	if big.FlopsMatVec() <= small.FlopsMatVec()*4 {
		t.Fatal("flop counts must scale with the grid")
	}
	if small.FlopsMatVec() != int64(9*9*9*45) {
		t.Fatalf("matvec flops = %d", small.FlopsMatVec())
	}
}
