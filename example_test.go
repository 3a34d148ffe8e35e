package npbgo_test

import (
	"fmt"

	"npbgo"
)

// ExampleRun shows the basic benchmark-driving API. (Timing varies per
// host, so this example asserts only the verification outcome.)
func ExampleRun() {
	res, err := npbgo.Run(npbgo.Config{Benchmark: npbgo.MG, Class: 'S', Threads: 2})
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Benchmark, string(res.Class), res.Verified, res.Tier)
	// Output: MG S true official
}

// ExampleBlockRange shows the static partitioning the team runtime uses
// for loop work-sharing.
func ExampleBlockRange() {
	for id := 0; id < 3; id++ {
		lo, hi := npbgo.BlockRange(0, 10, 3, id)
		fmt.Printf("worker %d: [%d,%d)\n", id, lo, hi)
	}
	// Output:
	// worker 0: [0,4)
	// worker 1: [4,7)
	// worker 2: [7,10)
}

// ExampleTeam demonstrates a deterministic parallel reduction: one
// region, one partial per static block, summed in block order.
func ExampleTeam() {
	team := npbgo.NewTeam(4)
	defer team.Close()
	team.Run(func(id int) {
		for it := team.ReduceBlocks(id, 1, 101); it.Next(); {
			s := 0.0
			for i := it.Lo; i < it.Hi; i++ {
				s += float64(i)
			}
			*team.Partial(it.Chunk()) = s
		}
	})
	fmt.Println(team.PartialSum())
	// Output: 5050
}
