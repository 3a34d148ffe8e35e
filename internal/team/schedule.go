// Loop scheduling: OpenMP's schedule(static) and
// schedule(nonmonotonic:dynamic), mapped onto the team runtime.
//
// The paper's §5.2 traces CG's poor scaling to load imbalance under the
// static block distribution its Java prototype hard-codes — the same
// distribution Block computes. A Schedule makes the distribution a
// property of the team: static keeps the old behavior (and stays the
// default); dynamic gives every worker a deque holding the chunks of its
// own static block, popped front to back, and a worker whose deque is
// empty takes the back half of another worker's remainder (OpenMP 5.0's
// nonmonotonic:dynamic, the default since 5.0), so each worker reads
// what it wrote in the loop before unless it has run dry. Guided and
// Stealing are retired spellings that run dynamic. The schedule is
// fixed when the team is built.
//
// Determinism. Scheduling only moves chunks between workers; it never
// changes which output element a chunk writes, so loops whose body
// writes f(i) for each owned index i produce bit-identical arrays under
// every schedule. Reductions additionally fix the chunk *decomposition*:
// a reduce loop always uses the n static blocks as its chunks, each
// chunk's partial lands in the slot of its block index (not the worker
// that ran it), and the master sums slots in block order — so reduction
// results are bit-identical to static under every schedule at a fixed
// team size, no matter which worker claimed which block.
//
// All arm-word and deque state lives in the Team (allocated once in New)
// and the body-side Iter is a plain value on the worker's stack, so a
// scheduled loop allocates nothing on the hot path and the zero-alloc
// gates hold at budget 0.
package team

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
)

// Schedule selects how loop iterations are distributed over the team.
type Schedule uint8

const (
	// Static is the historical default: each worker runs one contiguous
	// block computed by Block, the OpenMP schedule(static) of the
	// paper's prototype.
	Static Schedule = iota
	// Dynamic deals fixed-size chunks through per-worker deques: each
	// worker pops the chunks of its own static block first, front to
	// back, and only once that is empty steals the back half of another
	// worker's remainder (OpenMP 5.0 nonmonotonic:dynamic).
	Dynamic
	// Guided and Stealing are retired spellings: WithSchedule runs both
	// as Dynamic, and ParseSchedule rejects them. They stay, with their
	// String spellings, while the benchmark's layer probes name them.
	Guided
	Stealing
)

// scheduleNames holds the String spellings, indexed by Schedule; the
// ones before Guided are the flag spellings ParseSchedule accepts.
var scheduleNames = [...]string{Static: "static", Dynamic: "dynamic", Guided: "guided", Stealing: "stealing"}

// accepted is the flag spellings: static and dynamic.
var accepted = scheduleNames[:Guided]

// String returns the schedule's spelling.
func (s Schedule) String() string {
	if int(s) < len(scheduleNames) {
		return scheduleNames[s]
	}
	return "?"
}

// ScheduleNames lists the accepted ParseSchedule spellings, in flag
// help order.
func ScheduleNames() []string { return append([]string(nil), accepted...) }

// ParseSchedule parses a schedule name. The empty string parses as
// Static, so an unset config field keeps the historical behavior.
func ParseSchedule(name string) (Schedule, error) {
	for s, n := range accepted {
		if name == n {
			return Schedule(s), nil
		}
	}
	if name == "" {
		return Static, nil
	}
	return Static, fmt.Errorf("team: unknown schedule %q (want one of %s)", name, strings.Join(accepted, ", "))
}

// WithSchedule selects the team's loop schedule. The zero value Static
// is the default; every other value runs Dynamic.
func WithSchedule(s Schedule) Option {
	if s != Static {
		s = Dynamic
	}
	return func(t *Team) { t.sched = s }
}

const (
	// loopSlots is the ring of arm words and deque sets. Successive
	// worksharing loops take successive slots, across regions too, so a
	// slot is reused loopSlots loops later. A region may run any number
	// of loops, but no worker may be loopSlots loops ahead of another:
	// at most loopSlots worksharing loops between two barriers (or a
	// barrier and the join). The fused kernels run at most three.
	loopSlots = 16
	// oversub is the automatic-grain target for dynamic: about oversub
	// chunks per worker, enough slack to rebalance without drowning in
	// deque traffic.
	oversub = 8
	// maxChunks caps a loop's chunk count so chunk ordinals and deque
	// bounds always fit their 32-bit halves.
	maxChunks = 1 << 24

	lowMask = (uint64(1) << 32) - 1
	tagMask = ^lowMask
)

// padU64 is an atomic word on its own cache line: arm words and deque
// words are CAS-contended by every worker.
type padU64 struct {
	v atomic.Uint64
	_ [56]byte
}

// padCount is a per-worker counter on its own cache line (the worker's
// loop ordinal within the current region; master-reset between regions).
type padCount struct {
	v uint32
	_ [60]byte
}

// Iter is the body-side work-sharing iterator. A region body obtains
// one per loop with Team.Loop (or Team.ReduceBlocks for reductions) and
// drains it:
//
//	for it := tm.Loop(id, lo, hi); it.Next(); {
//		for i := it.Lo; i < it.Hi; i++ { ... }
//	}
//
// Under the static schedule the single chunk is exactly the worker's
// Block share, so migrated code behaves identically by default. Every
// worker of the region must construct the iterator (all of them bump
// their loop ordinal), even if it claims no chunks. Iter is a value:
// it lives on the worker's stack and allocates nothing.
type Iter struct {
	t      *Team
	id     int
	lo, hi int

	blockMode bool // chunks are the nchunks static blocks, not grain-sized
	grain     int
	nchunks   int

	slot *padU64  // dynamic's arm word
	tag  uint64   // loop-instance tag in the word's high 32 bits
	deq  []padU64 // dynamic's per-worker deques; nil under static

	next, stop int // static/inline ordinal window

	cur int // ordinal of the current chunk
	// Lo and Hi bound the current chunk, half-open, after Next returns
	// true.
	Lo, Hi int
}

// Loop returns the work-sharing iterator for [lo, hi) under the team's
// schedule. id must be the calling worker's region id.
func (t *Team) Loop(id, lo, hi int) Iter { return t.newIter(id, lo, hi, false) }

// ReduceBlocks returns the reduction iterator for [lo, hi): its chunks
// are always the Size() static blocks, every chunk is yielded (even
// empty ones), and Chunk names the block index — so a body that stores
// chunk results via Partial(it.Chunk()) combines with PartialSum into a
// total that is bit-identical to the static schedule no matter which
// worker ran which block.
func (t *Team) ReduceBlocks(id, lo, hi int) Iter { return t.newIter(id, lo, hi, true) }

func (t *Team) newIter(id, lo, hi int, blocks bool) Iter {
	if hi < lo {
		hi = lo
	}
	it := Iter{t: t, id: id, lo: lo, hi: hi, cur: -1}
	n := t.n
	if n == 1 {
		it.blockMode = true
		it.nchunks = 1
		it.stop = 1
		return it
	}
	if blocks || t.sched == Static {
		it.blockMode = true
		it.nchunks = n
	}
	if t.sched == Static {
		it.next, it.stop = id, id+1
		return it
	}
	// Dynamic: claim this loop's arm word and deques by its instance
	// number, counted over the team's life. The tag makes the first
	// arriver's claim unambiguous against the slot's previous (dead)
	// loop: consecutive instances walk the ring, so a slot's last tag is
	// loopSlots instances old, never 2^32.
	k := t.loopK[id].v
	t.loopK[id].v = k + 1
	inst := t.loopBase + k
	it.tag = uint64(inst) << 32
	it.slot = &t.loops[inst%loopSlots]
	it.deq = t.deques[inst%loopSlots]
	if !it.blockMode {
		span := hi - lo
		g := span / (oversub * n)
		if g < 1 {
			g = 1
		}
		if span/g >= maxChunks {
			g = (span + maxChunks - 1) / maxChunks
		}
		it.grain = g
		it.nchunks = (span + g - 1) / g
	}
	if it.nchunks > 0 {
		it.armSteal()
	}
	return it
}

// Next advances to the next chunk, returning false when the loop's
// iteration space is exhausted for this worker.
func (it *Iter) Next() bool {
	if it.nchunks == 0 {
		return false
	}
	if it.deq == nil { // Static or inline
		if it.next >= it.stop {
			return false
		}
		it.cur = it.next
		it.next++
	} else {
		c, victim, ok := it.stealNext()
		if !ok {
			return false
		}
		if p := it.t.probe; p != nil {
			p.chunk(it.id, victim)
		}
		it.cur = c
	}
	it.Lo, it.Hi = it.chunkRange(it.cur)
	return true
}

// Chunk returns the ordinal of the current chunk. Under ReduceBlocks it
// is the block index, the deterministic slot for this chunk's partial.
func (it *Iter) Chunk() int { return it.cur }

// armSteal makes sure this loop's deques are filled before any chunk is
// taken: the first arriver claims the slot word (tag with the armed bit
// clear), writes every worker's initial chunk range, then publishes the
// armed bit; later arrivers spin until they see it.
func (it *Iter) armSteal() {
	slot := &it.slot.v
	for {
		v := slot.Load()
		if v&tagMask == it.tag {
			if v&1 != 0 {
				return
			}
			runtime.Gosched()
			continue
		}
		if !slot.CompareAndSwap(v, it.tag) {
			continue
		}
		d := it.deq
		for w := range d {
			clo, chi := Block(0, it.nchunks, len(d), w)
			d[w].v.Store(uint64(clo)<<32 | uint64(chi))
		}
		slot.Store(it.tag | 1)
		return
	}
}

// stealNext pops the front of the worker's own deque, or — once that is
// empty — steals the back half of a victim's remaining range, keeping
// the first stolen chunk and installing the rest as its own new deque.
// It returns false only when every deque is empty; a chunk popped by
// another worker is that worker's to finish, so every chunk is run
// exactly once.
func (it *Iter) stealNext() (c, victim int, ok bool) {
	d := it.deq
	own := &d[it.id].v
	for {
		v := own.Load()
		clo, chi := int(v>>32), int(v&lowMask)
		if clo >= chi {
			break
		}
		if own.CompareAndSwap(v, v+(1<<32)) {
			return clo, -1, true
		}
	}
	n := len(d)
	for {
		empty := true
		for off := 1; off < n; off++ {
			w := it.id + off
			if w >= n {
				w -= n
			}
			v := d[w].v.Load()
			clo, chi := int(v>>32), int(v&lowMask)
			if clo >= chi {
				continue
			}
			empty = false
			mid := clo + (chi-clo)/2 // victim keeps the front half
			if !d[w].v.CompareAndSwap(v, uint64(clo)<<32|uint64(mid)) {
				continue
			}
			if mid+1 < chi {
				own.Store(uint64(mid+1)<<32 | uint64(chi))
			}
			return mid, w, true
		}
		if empty {
			return 0, -1, false
		}
	}
}

// chunkRange maps a chunk ordinal to its half-open index range.
func (it *Iter) chunkRange(c int) (int, int) {
	if it.blockMode {
		return Block(it.lo, it.hi, it.nchunks, c)
	}
	lo := it.lo + c*it.grain
	hi := lo + it.grain
	if hi > it.hi {
		hi = it.hi
	}
	return lo, hi
}
