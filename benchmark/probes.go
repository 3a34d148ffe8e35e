package main

import (
	"time"

	"npbgo/internal/grid"
	"npbgo/internal/nscore"
	"npbgo/internal/ops"
	"npbgo/internal/randdp"
	"npbgo/internal/team"
	"npbgo/internal/timer"
)

// The micro-probes time calls into the public functions of the packages
// under the kernels. Each does a fixed amount of work (scaled down only
// by the tests), is repeated probeReps times, and reports its best
// repeat divided by the operation count.
const (
	probeWorkers = 2
	probeReps    = 5
)

var probeSink float64

// probe runs the micro-probes and returns their metrics by name. scale
// multiplies every operation count; 1 is the benchmark's setting.
func probe(scale float64, sp *spans, parent int) map[string]float64 {
	out := map[string]float64{}
	count := func(base int) int {
		if n := int(float64(base) * scale); n > 1 {
			return n
		}
		return 1
	}
	// perOp records the best of probeReps calls of f, which returns the
	// time it measured, in unit per op.
	perOp := func(name string, unit time.Duration, ops int, f func() time.Duration) {
		id := sp.begin(name, "probe", parent)
		best := f()
		for r := 1; r < probeReps; r++ {
			if d := f(); d < best {
				best = d
			}
		}
		sp.end(id)
		out[name] = float64(best) / float64(unit) / float64(ops)
	}
	probeTeam(count, perOp)
	probeSchedules(count, perOp)
	probeFields(count, perOp)
	probeScalars(count, perOp)
	return out
}

type (
	counter func(base int) int
	timerOp func(name string, unit time.Duration, ops int, f func() time.Duration)
)

// whole makes f a probe body timed from start to end.
func whole(f func()) func() time.Duration {
	return func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	}
}

// probeTeam measures the fixed costs of the team runtime on the default
// static schedule.
func probeTeam(count counter, perOp timerOp) {
	tm := team.New(probeWorkers)
	defer tm.Close()
	empty := func(int) {}

	n := count(20000)
	perOp("team.forkjoin_ns", time.Nanosecond, n, whole(func() {
		for i := 0; i < n; i++ {
			tm.Run(empty)
		}
	}))

	// A region forked after 50 us of master-only work finds its workers
	// parked rather than still spinning on their channels, the common
	// case between a kernel's regions. Only the regions are timed.
	n = count(2000)
	perOp("team.forkjoin_parked_ns", time.Nanosecond, n, func() time.Duration {
		var sum time.Duration
		for i := 0; i < n; i++ {
			for t0 := time.Now(); time.Since(t0) < 50*time.Microsecond; {
			}
			t0 := time.Now()
			tm.Run(empty)
			sum += time.Since(t0)
		}
		return sum
	})

	n = count(20000)
	perOp("team.barrier_ns", time.Nanosecond, n, whole(func() {
		tm.Run(func(id int) {
			for i := 0; i < n; i++ {
				tm.BarrierID(id)
			}
		})
	}))

	n = count(10000)
	perOp("team.reduce_ns", time.Nanosecond, n, whole(func() {
		for i := 0; i < n; i++ {
			tm.Run(func(id int) {
				for it := tm.ReduceBlocks(id, 0, 64); it.Next(); {
					s := 0.0
					for j := it.Lo; j < it.Hi; j++ {
						s += float64(j)
					}
					*tm.Partial(it.Chunk()) = s
				}
			})
			probeSink += tm.PartialSum()
		}
	}))

	n = count(2000)
	perOp("team.new_close_us", time.Microsecond, n, whole(func() {
		for i := 0; i < n; i++ {
			team.New(probeWorkers).Close()
		}
	}))

	// One region holding one Loop over 4096 indices with a one-add body:
	// what a kernel pays per index for the static split.
	const indices = 4096
	n = count(5000)
	var sums [probeWorkers][8]float64 // one cache line per worker
	perOp("team.loop_static_ns_per_iter", time.Nanosecond, n*indices, whole(func() {
		for i := 0; i < n; i++ {
			tm.Run(func(id int) {
				s := 0.0
				for it := tm.Loop(id, 0, indices); it.Next(); {
					for j := it.Lo; j < it.Hi; j++ {
						s += float64(j)
					}
				}
				sums[id][0] = s
			})
		}
	}))
	probeSink += sums[0][0]

	// LU's sweeps: each worker waits for its predecessor's token and
	// posts its own, once per plane.
	const steps = 1000
	n = count(20)
	pipe := tm.NewPipeline(steps)
	perOp("team.pipeline_step_ns", time.Nanosecond, n*steps, whole(func() {
		for i := 0; i < n; i++ {
			tm.Run(func(id int) {
				for s := 0; s < steps; s++ {
					pipe.Wait(id)
					pipe.Post(id)
				}
			})
			pipe.Drain()
		}
	}))
}

// probeSchedules measures what one chunk costs under each dispensing
// schedule: a region with one Loop over 4096 indices and an empty body,
// divided by the chunks the workers claimed (fork-join included, as a
// kernel pays it).
func probeSchedules(count counter, perOp timerOp) {
	for _, s := range []team.Schedule{team.Dynamic, team.Guided, team.Stealing} {
		tm := team.New(probeWorkers, team.WithSchedule(s))
		var claimed [probeWorkers][8]int
		region := func(id int) {
			c := 0
			for it := tm.Loop(id, 0, 4096); it.Next(); {
				c++
			}
			claimed[id][0] = c
		}
		tm.Run(region)
		chunks := 0
		for id := range claimed {
			chunks += claimed[id][0]
		}
		n := count(5000)
		perOp("team.loop_"+s.String()+"_ns_per_chunk", time.Nanosecond, n*chunks, whole(func() {
			for i := 0; i < n; i++ {
				tm.Run(region)
			}
		}))
		tm.Close()
	}
}

// probeFields measures the array-sized building blocks: the shared
// right-hand side of BT, SP and LU on a 36^3 field (SP.W's grid), index
// arithmetic on a 64^3 sweep, and the paper's Table 1 operations on its
// 81x81x100 grid.
func probeFields(count counter, perOp timerOp) {
	tm := team.New(probeWorkers)
	defer tm.Close()
	const n36 = 36
	c := nscore.SetConstants(n36, 0.0015)
	f := nscore.NewField(n36, false)
	f.Initialize(&c)
	f.ExactRHS(&c)
	n := count(10)
	perOp("nscore.rhs_ms", time.Millisecond, n, whole(func() {
		for i := 0; i < n; i++ {
			f.ComputeRHS(&c, tm)
		}
	}))
	perOp("nscore.add_ms", time.Millisecond, n, whole(func() {
		for i := 0; i < n; i++ {
			f.Add(tm)
		}
	}))

	d := grid.Dim3{N1: 64, N2: 64, N3: 64}
	v := grid.Alloc3(d)
	for i := range v {
		v[i] = float64(i)
	}
	n = count(20)
	perOp("grid.at_ns_per_elem", time.Nanosecond, n*d.Len(), whole(func() {
		s := 0.0
		for r := 0; r < n; r++ {
			for k := 0; k < d.N3; k++ {
				for j := 0; j < d.N2; j++ {
					for i := 0; i < d.N1; i++ {
						s += v[d.At(i, j, k)]
					}
				}
			}
		}
		probeSink += s
	}))
	perOp("grid.stride_ns_per_elem", time.Nanosecond, n*d.Len(), whole(func() {
		s := 0.0
		for r := 0; r < n; r++ {
			for k := 0; k < d.N3; k++ {
				for j := 0; j < d.N2; j++ {
					row := v[(k*d.N2+j)*d.N1:][:d.N1]
					for _, x := range row {
						s += x
					}
				}
			}
		}
		probeSink += s
	}))

	w := ops.NewWorkload(ops.DefaultDim)
	pts := ops.DefaultDim.Len()
	n = count(3)
	perOp("ops.first_order_ns_per_pt", time.Nanosecond, n*pts, whole(func() {
		for i := 0; i < n; i++ {
			w.FirstOrder()
		}
	}))
	perOp("ops.second_order_ns_per_pt", time.Nanosecond, n*pts, whole(func() {
		for i := 0; i < n; i++ {
			w.SecondOrder()
		}
	}))
	perOp("ops.matvec_ns_per_pt", time.Nanosecond, n*pts, whole(func() {
		for i := 0; i < n; i++ {
			w.MatVec()
		}
	}))
}

// probeScalars measures the per-call primitives: the NPB random number
// generator and a phase timer's start/stop pair.
func probeScalars(count counter, perOp timerOp) {
	n := count(2_000_000)
	perOp("randdp.randlc_ns", time.Nanosecond, n, whole(func() {
		x := randdp.DefaultSeed
		s := 0.0
		for i := 0; i < n; i++ {
			s += randdp.Randlc(&x, randdp.A)
		}
		probeSink += s
	}))
	const batch = 1 << 16
	y := make([]float64, batch)
	n = count(30)
	perOp("randdp.vranlc_ns_per_num", time.Nanosecond, n*batch, whole(func() {
		x := randdp.DefaultSeed
		for i := 0; i < n; i++ {
			randdp.Vranlc(batch, &x, randdp.A, y)
		}
		probeSink += y[0]
	}))
	ts := timer.NewSet()
	n = count(200_000)
	perOp("timer.startstop_ns", time.Nanosecond, n, whole(func() {
		for i := 0; i < n; i++ {
			ts.Start("probe")
			ts.Stop("probe")
		}
	}))
}
