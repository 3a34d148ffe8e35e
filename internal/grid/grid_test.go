package grid

import (
	"testing"
	"testing/quick"
)

func TestDim3OffsetsAreDenseAndUnique(t *testing.T) {
	d := Dim3{N1: 3, N2: 4, N3: 5}
	seen := make([]bool, d.Len())
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				off := d.At(i1, i2, i3)
				if off < 0 || off >= d.Len() {
					t.Fatalf("offset %d out of range", off)
				}
				if seen[off] {
					t.Fatalf("offset %d hit twice at (%d,%d,%d)", off, i1, i2, i3)
				}
				seen[off] = true
			}
		}
	}
	for off, s := range seen {
		if !s {
			t.Fatalf("offset %d never produced", off)
		}
	}
}

func TestDim3FirstIndexFastest(t *testing.T) {
	d := Dim3{N1: 7, N2: 2, N3: 2}
	if d.At(1, 0, 0)-d.At(0, 0, 0) != 1 {
		t.Fatal("first index is not stride-1")
	}
	if d.At(0, 1, 0)-d.At(0, 0, 0) != d.N1 {
		t.Fatal("second index stride wrong")
	}
	if d.At(0, 0, 1)-d.At(0, 0, 0) != d.N1*d.N2 {
		t.Fatal("third index stride wrong")
	}
}

func TestDim4Dim5Offsets(t *testing.T) {
	d4 := Dim4{2, 3, 4, 5}
	if d4.Len() != 120 {
		t.Fatalf("Dim4 Len = %d", d4.Len())
	}
	if d4.At(1, 2, 3, 4) != 1+2*(2+3*(3+4*4)) {
		t.Fatalf("Dim4 At wrong: %d", d4.At(1, 2, 3, 4))
	}
	d5 := Dim5{5, 5, 3, 3, 3}
	if d5.Len() != 5*5*3*3*3 {
		t.Fatalf("Dim5 Len = %d", d5.Len())
	}
	if d5.At(4, 4, 2, 2, 2) != d5.Len()-1 {
		t.Fatalf("Dim5 last element offset %d, want %d", d5.At(4, 4, 2, 2, 2), d5.Len()-1)
	}
}

func TestOffsetsDenseProperty(t *testing.T) {
	f := func(a, b, c uint8) bool {
		d := Dim3{int(a%6) + 1, int(b%6) + 1, int(c%6) + 1}
		last := -1
		// Walking in memory order (i1 fastest) must produce 0..Len-1.
		for i3 := 0; i3 < d.N3; i3++ {
			for i2 := 0; i2 < d.N2; i2++ {
				for i1 := 0; i1 < d.N1; i1++ {
					if d.At(i1, i2, i3) != last+1 {
						return false
					}
					last++
				}
			}
		}
		return last == d.Len()-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNestedSharesLayoutWithLinear(t *testing.T) {
	d := Dim3{N1: 4, N2: 3, N3: 2}
	lin := Alloc3(d)
	nst := Nest3(make([]float64, d.Len()), d)
	v := 0.0
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				lin[d.At(i1, i2, i3)] = v
				nst[i3][i2][i1] = v
				v++
			}
		}
	}
	for i3 := 0; i3 < d.N3; i3++ {
		for i2 := 0; i2 < d.N2; i2++ {
			for i1 := 0; i1 < d.N1; i1++ {
				if lin[d.At(i1, i2, i3)] != nst[i3][i2][i1] {
					t.Fatalf("mismatch at (%d,%d,%d)", i1, i2, i3)
				}
			}
		}
	}
}

func TestNested4Shape(t *testing.T) {
	d := Dim4{5, 4, 3, 2}
	n := Nest4(make([]float64, d.Len()), d)
	if len(n) != d.N4 || len(n[0]) != d.N3 || len(n[0][0]) != d.N2 || len(n[0][0][0]) != d.N1 {
		t.Fatalf("Nested4 shape wrong: %d %d %d %d", len(n), len(n[0]), len(n[0][0]), len(n[0][0][0]))
	}
	n[1][2][3][4] = 7
	if n[1][2][3][4] != 7 {
		t.Fatal("write did not stick")
	}
}

func TestNested5Shape(t *testing.T) {
	d := Dim5{5, 5, 3, 2, 4}
	n := Nest5(make([]float64, d.Len()), d)
	if len(n) != d.N5 || len(n[0]) != d.N4 || len(n[0][0]) != d.N3 ||
		len(n[0][0][0]) != d.N2 || len(n[0][0][0][0]) != d.N1 {
		t.Fatal("Nested5 shape wrong")
	}
	n[3][1][2][4][0] = 9
	if n[3][1][2][4][0] != 9 {
		t.Fatal("write did not stick")
	}
	// Backing is shared and dense: writing the linear twin changes it.
	lin := Alloc5(d)
	if len(lin) != d.Len() {
		t.Fatal("Alloc5 length wrong")
	}
}
