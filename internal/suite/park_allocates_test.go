//go:build race

package suite

// parkAllocates marks a race build, in which a team worker that parks
// inside a measured Iter now and then meets empty sudog caches, and the
// runtime heap-allocates a 96-byte sudog for the park (acquireSudog,
// under sync.Cond.Wait in team's lot.wait). Measured with go1.24 on a
// 2-CPU amd64 host: one or two such mallocs in 292 of 2,400 two-Iter
// windows of ASSIGN at two threads, and none in 1,200 without -race.
// The race runtime also randomizes the scheduler, so which parks meet
// an empty cache varies.
const parkAllocates = true
