package team

// The closure-per-call loop forms the runtime used to export (For,
// ForBlock, ReduceSum), rebuilt on Run + Loop/ReduceBlocks for the tests
// written against them: what those tests pin — coverage, schedule
// independence, cancellation — is now pinned on the one construct.

// forBlock runs body once per scheduled chunk of [lo, hi), as one region.
func forBlock(tm *Team, lo, hi int, body func(blo, bhi int)) {
	tm.Run(func(id int) {
		for it := tm.Loop(id, lo, hi); it.Next(); {
			body(it.Lo, it.Hi)
		}
	})
}

// forEach runs body(i) for every i in [lo, hi), as one region.
func forEach(tm *Team, lo, hi int, body func(i int)) {
	forBlock(tm, lo, hi, func(blo, bhi int) {
		for i := blo; i < bhi; i++ {
			body(i)
		}
	})
}

// reduceSum sums body over the Size() static blocks of [lo, hi) in block
// order; 0 on a cancelled team, as PartialSum.
func reduceSum(tm *Team, lo, hi int, body func(blo, bhi int) float64) float64 {
	tm.Run(func(id int) {
		for it := tm.ReduceBlocks(id, lo, hi); it.Next(); {
			*tm.Partial(it.Chunk()) = body(it.Lo, it.Hi)
		}
	})
	return tm.PartialSum()
}
