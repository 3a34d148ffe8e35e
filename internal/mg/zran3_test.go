package mg

import (
	"fmt"
	"math"
	"testing"

	"npbgo/internal/randdp"
	"npbgo/internal/team"
)

// oracleZran3 is the serial routine findCharges and plant replaced, a
// transcription of mg.f's zran3 kept as the reference: write the whole
// random field into z (one generator jump of nx per row and nx*ny per
// plane), rescan it for the mm largest and mm smallest values, zero it
// and plant the charges.
func oracleZran3(z []float64, l level, nx, ny int) {
	zero3(z)
	plane := randdp.New(randdp.DefaultSeed, randdp.A)
	for i3 := 1; i3 < l.n3-1; i3++ {
		row := plane
		for i2 := 1; i2 < l.n2-1; i2++ {
			elems := row
			off := l.at(1, i2, i3)
			elems.Fill(z[off : off+nx])
			row.Skip(nx)
		}
		plane.Skip(nx * ny)
	}
	large := make([]cand, 0, mm+1)
	small := make([]cand, 0, mm+1)
	for i3 := 1; i3 < l.n3-1; i3++ {
		for i2 := 1; i2 < l.n2-1; i2++ {
			for i1 := 1; i1 < l.n1-1; i1++ {
				off := l.at(i1, i2, i3)
				v := z[off]
				if len(large) < mm || v > large[0].val {
					large = oracleInsert(large, cand{v, off}, func(a, b float64) bool { return a < b })
				}
				if len(small) < mm || v < small[0].val {
					small = oracleInsert(small, cand{v, off}, func(a, b float64) bool { return a > b })
				}
			}
		}
	}
	zero3(z)
	for _, c := range small {
		z[c.off] = -1.0
	}
	for _, c := range large {
		z[c.off] = +1.0
	}
	comm3(z, l)
}

// oracleInsert inserts c into a list kept sorted by before, evicting
// the head when the list exceeds mm.
func oracleInsert(list []cand, c cand, before func(a, b float64) bool) []cand {
	list = append(list, c)
	for i := len(list) - 1; i > 0 && before(list[i].val, list[i-1].val); i-- {
		list[i], list[i-1] = list[i-1], list[i]
	}
	if len(list) > mm {
		copy(list, list[1:])
		list = list[:mm]
	}
	return list
}

// plantCharges runs the benchmark's find-and-plant on fresh row scratch
// and a team of the given size and schedule.
func plantCharges(z []float64, l level, workers int, s team.Schedule) {
	tm := team.New(workers, team.WithSchedule(s))
	defer tm.Close()
	rhs := findCharges(tm, l, chargeRows(workers, l))
	rhs.plant(z, l)
}

// chargeRows makes findCharges' row scratch for a team of the given
// size on level l.
func chargeRows(workers int, l level) [][]float64 {
	rows := make([][]float64, workers)
	for id := range rows {
		rows[id] = make([]float64, l.n1)
	}
	return rows
}

// TestChargesMatchOracle compares all of v, ghost shells included, with
// the serial oracle: every team size and schedule must find the same
// twenty positions, including teams with more workers than planes per
// block and blocks of unequal length.
func TestChargesMatchOracle(t *testing.T) {
	for _, nx := range []int{8, 32, 128} {
		l := level{nx + 2, nx + 2, nx + 2}
		want := make([]float64, l.len())
		oracleZran3(want, l, nx, nx)
		got := make([]float64, l.len())
		for _, workers := range []int{1, 2, 3, 7} {
			for _, name := range team.ScheduleNames() {
				s, err := team.ParseSchedule(name)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					got[i] = math.NaN() // plant must overwrite everything
				}
				plantCharges(got, l, workers, s)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("nx=%d workers=%d %s: v[%d] = %v, oracle %v", nx, workers, name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// BenchmarkCharges is the search for MG.W's twenty charges, once per
// run; planting them (twice per run) is BenchmarkPlant.
func BenchmarkCharges(b *testing.B) {
	l := level{130, 130, 130}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			tm := team.New(workers)
			defer tm.Close()
			rows := chargeRows(workers, l)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				findCharges(tm, l, rows)
			}
		})
	}
}

func BenchmarkPlant(b *testing.B) {
	l := level{130, 130, 130}
	tm := team.New(1)
	defer tm.Close()
	rhs := findCharges(tm, l, chargeRows(1, l))
	z := make([]float64, l.len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rhs.plant(z, l)
	}
}
