package team

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestBlockPartitionProperty(t *testing.T) {
	f := func(loRaw int8, nRaw uint16, pRaw uint8) bool {
		lo := int(loRaw)
		n := int(nRaw % 1000)
		parts := int(pRaw%16) + 1
		hi := lo + n
		prev := lo
		total := 0
		for id := 0; id < parts; id++ {
			blo, bhi := Block(lo, hi, parts, id)
			if blo != prev { // contiguous cover, in order
				return false
			}
			size := bhi - blo
			if size < 0 || size > n/parts+1 {
				return false
			}
			total += size
			prev = bhi
		}
		return prev == hi && total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBlockSizesDifferByAtMostOne(t *testing.T) {
	for _, parts := range []int{1, 2, 3, 7, 16} {
		for n := 0; n < 40; n++ {
			minSz, maxSz := 1<<30, -1
			for id := 0; id < parts; id++ {
				lo, hi := Block(0, n, parts, id)
				sz := hi - lo
				if sz < minSz {
					minSz = sz
				}
				if sz > maxSz {
					maxSz = sz
				}
			}
			if maxSz-minSz > 1 {
				t.Fatalf("n=%d parts=%d: sizes range %d..%d", n, parts, minSz, maxSz)
			}
		}
	}
}

func TestRunExecutesEveryWorkerOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		tm := New(n)
		counts := make([]int32, n)
		for rep := 0; rep < 10; rep++ {
			tm.Run(func(id int) { atomic.AddInt32(&counts[id], 1) })
		}
		tm.Close()
		for id, c := range counts {
			if c != 10 {
				t.Fatalf("n=%d worker %d ran %d times, want 10", n, id, c)
			}
		}
	}
}

func TestForCoversEachIndexExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 3, 5} {
		tm := New(n)
		const lo, hi = 3, 250
		hits := make([]int32, hi)
		forEach(tm, lo, hi, func(i int) { atomic.AddInt32(&hits[i], 1) })
		tm.Close()
		for i := 0; i < lo; i++ {
			if hits[i] != 0 {
				t.Fatalf("index %d below range touched", i)
			}
		}
		for i := lo; i < hi; i++ {
			if hits[i] != 1 {
				t.Fatalf("n=%d index %d hit %d times", n, i, hits[i])
			}
		}
	}
}

func TestForBlockCoversRange(t *testing.T) {
	tm := New(4)
	defer tm.Close()
	var mu sync.Mutex
	covered := make(map[int]bool)
	forBlock(tm, 0, 101, func(blo, bhi int) {
		mu.Lock()
		for i := blo; i < bhi; i++ {
			if covered[i] {
				mu.Unlock()
				t.Errorf("index %d covered twice", i)
				return
			}
			covered[i] = true
		}
		mu.Unlock()
	})
	if len(covered) != 101 {
		t.Fatalf("covered %d indices, want 101", len(covered))
	}
}

func TestReduceSumMatchesSerial(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i%97) * 0.5
	}
	want := 0.0
	for _, v := range vals {
		want += v
	}
	for _, n := range []int{1, 2, 4, 7} {
		tm := New(n)
		got := reduceSum(tm, 0, len(vals), func(blo, bhi int) float64 {
			s := 0.0
			for i := blo; i < bhi; i++ {
				s += vals[i]
			}
			return s
		})
		tm.Close()
		if got != want {
			// Partial sums are accumulated in worker order over
			// contiguous blocks, matching the serial association up
			// to block boundaries; for these values the result must
			// be identical because all partials are exactly
			// representable sums of halves.
			t.Fatalf("n=%d: ReduceSum = %v, want %v", n, got, want)
		}
	}
}

func TestReduceSumDeterministicAcrossRepeats(t *testing.T) {
	vals := make([]float64, 4096)
	x := 0.5
	for i := range vals {
		x = x*1.000301 + 0.125
		if x > 1e6 {
			x *= 1e-6
		}
		vals[i] = x
	}
	tm := New(4)
	defer tm.Close()
	body := func(blo, bhi int) float64 {
		s := 0.0
		for i := blo; i < bhi; i++ {
			s += vals[i]
		}
		return s
	}
	first := reduceSum(tm, 0, len(vals), body)
	for rep := 0; rep < 20; rep++ {
		if got := reduceSum(tm, 0, len(vals), body); got != first {
			t.Fatalf("repeat %d: %v != %v (reduction not deterministic)", rep, got, first)
		}
	}
}

func TestBarrierOrdersPhases(t *testing.T) {
	const n = 4
	tm := New(n)
	defer tm.Close()
	var phase1 int32
	violated := int32(0)
	tm.Run(func(id int) {
		atomic.AddInt32(&phase1, 1)
		tm.Barrier()
		// After the barrier every worker must observe all n phase-1
		// increments.
		if atomic.LoadInt32(&phase1) != n {
			atomic.StoreInt32(&violated, 1)
		}
	})
	if atomic.LoadInt32(&violated) != 0 {
		t.Fatal("barrier let a worker through before all reached phase 1")
	}
}

func TestBarrierReusableManyTimes(t *testing.T) {
	const n = 3
	tm := New(n)
	defer tm.Close()
	var counter int32
	bad := int32(0)
	tm.Run(func(id int) {
		for step := 1; step <= 50; step++ {
			atomic.AddInt32(&counter, 1)
			tm.Barrier()
			if atomic.LoadInt32(&counter) != int32(n*step) {
				atomic.StoreInt32(&bad, int32(step))
			}
			tm.Barrier()
		}
	})
	if n := atomic.LoadInt32(&bad); n != 0 {
		t.Fatalf("barrier misordered at step %d", n)
	}
}

func TestPipelineEnforcesOrder(t *testing.T) {
	const n = 4
	const planes = 20
	tm := New(n)
	defer tm.Close()
	p := NewPipeline(n, planes)
	// progress[w] = number of planes finished by worker w.
	progress := make([]int32, n)
	bad := int32(0)
	tm.Run(func(id int) {
		for k := 0; k < planes; k++ {
			p.Wait(id)
			// Invariant: predecessor must have finished plane k.
			if id > 0 && atomic.LoadInt32(&progress[id-1]) < int32(k+1) {
				atomic.StoreInt32(&bad, 1)
			}
			atomic.AddInt32(&progress[id], 1)
			p.Post(id)
		}
	})
	if atomic.LoadInt32(&bad) != 0 {
		t.Fatal("pipeline order violated")
	}
	for w := 0; w < n; w++ {
		if progress[w] != planes {
			t.Fatalf("worker %d finished %d planes, want %d", w, progress[w], planes)
		}
	}
}

func TestPipelineReverse(t *testing.T) {
	const n = 3
	const planes = 10
	tm := New(n)
	defer tm.Close()
	p := NewPipeline(n, planes)
	progress := make([]int32, n)
	bad := int32(0)
	tm.Run(func(id int) {
		for k := 0; k < planes; k++ {
			p.WaitReverse(id)
			if id < n-1 && atomic.LoadInt32(&progress[id+1]) < int32(k+1) {
				atomic.StoreInt32(&bad, 1)
			}
			atomic.AddInt32(&progress[id], 1)
			p.PostReverse(id)
		}
	})
	if atomic.LoadInt32(&bad) != 0 {
		t.Fatal("reverse pipeline order violated")
	}
}

func TestPipelineDrainAllowsReuse(t *testing.T) {
	const n = 2
	tm := New(n)
	defer tm.Close()
	p := NewPipeline(n, 4)
	for sweep := 0; sweep < 3; sweep++ {
		tm.Run(func(id int) {
			for k := 0; k < 4; k++ {
				p.Wait(id)
				p.Post(id)
			}
		})
		p.Drain()
	}
}

func TestWarmupReturnsWork(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	if v := tm.Warmup(1000); v <= 0 {
		t.Fatalf("warmup returned %v", v)
	}
}

func TestSizeOneRunsInline(t *testing.T) {
	tm := New(1)
	defer tm.Close()
	ran := false
	tm.Run(func(id int) {
		if id != 0 {
			t.Errorf("id = %d, want 0", id)
		}
		ran = true // every worker writes the same value
	})
	if !ran {
		t.Fatal("region did not run")
	}
}

func TestNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestCloseIdempotent(t *testing.T) {
	tm := New(3)
	tm.Close()
	tm.Close()
}

func TestPartialSlots(t *testing.T) {
	tm := New(3)
	defer tm.Close()
	tm.Run(func(id int) { *tm.Partial(id) = float64(id + 1) })
	if got := tm.PartialSum(); got != 6 {
		t.Fatalf("PartialSum = %v, want 6", got)
	}
}

func BenchmarkRegionForkJoin(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(benchName(n), func(b *testing.B) {
			tm := New(n)
			defer tm.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm.Run(func(int) {})
			}
		})
	}
}

func BenchmarkBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName(n), func(b *testing.B) {
			tm := New(n)
			defer tm.Close()
			b.ResetTimer()
			tm.Run(func(id int) {
				for i := 0; i < b.N; i++ {
					tm.Barrier()
				}
			})
		})
	}
}

func benchName(n int) string {
	return "threads=" + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func TestNestedRegionPanics(t *testing.T) {
	tm := New(2)
	defer tm.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Run did not panic")
		}
	}()
	tm.Run(func(id int) {
		if id == 0 {
			// Deliberately nested to pin the panic behaviour.
			tm.Run(func(int) {}) // must panic, not deadlock
		}
	})
}
