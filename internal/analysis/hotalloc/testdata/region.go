package hotallocfixture

import (
	"fmt"

	"npbgo/internal/team"
)

func regionAllocs(tm *team.Team, out []float64, n int) {
	tm.Run(func(id int) {
		buf := make([]float64, n) // want `make allocates in parallel region body`
		out[0] = buf[0]
	})
	tm.Run(func(id int) {
		for it := tm.Loop(id, 0, n); it.Next(); {
			p := new(float64) // want `new allocates in parallel region body`
			out[it.Lo] = *p
		}
	})
	tm.Run(func(id int) {
		s := []float64{0} // want `slice literal allocates in parallel region body`
		for it := tm.ReduceBlocks(id, 0, n); it.Next(); {
			s = append(s, out[it.Lo]) // want `append may grow its backing array in parallel region body`
			*tm.Partial(it.Chunk()) = s[0]
		}
	})
	tm.Run(func(id int) {
		m := map[int]int{} // want `map literal allocates in parallel region body`
		out[id] = float64(m[id])
	})
	// Setup allocations outside any hot region are fine.
	cold := make([]float64, n)
	_ = cold
}

func nestedClosure(tm *team.Team, out []float64, n int) {
	tm.Run(func(id int) {
		f := func() int { return id } // want `function literal allocates a closure per execution of parallel region body`
		out[id] = float64(f())
	})
}

func boxing(tm *team.Team, out []string) {
	tm.Run(func(id int) {
		out[id] = fmt.Sprintf("w%d", id) // want `argument is boxed into an interface parameter in parallel region body`
	})
}

var sink any

func conversion(tm *team.Team) {
	tm.Run(func(id int) {
		sink = any(id) // want `conversion boxes its operand into an interface in parallel region body`
	})
}
