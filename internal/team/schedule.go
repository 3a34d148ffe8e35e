// Loop scheduling: the OpenMP schedule(static|dynamic|guided) family
// plus work stealing, mapped onto the team runtime.
//
// The paper's §5.2 traces CG's poor scaling to load imbalance under the
// static block distribution its Java prototype hard-codes — the same
// distribution Block computes. A Schedule makes the distribution a
// property of the team: static keeps the old behavior (and stays the
// default), dynamic hands out fixed-size chunks through an atomic
// cursor, guided shrinks chunks geometrically so the tail self-balances,
// and stealing gives every worker a deque of chunks with idle workers
// taking the back half of a victim's remaining range. Auto starts
// static and lets the tuner escalate using the feedback (imbalance
// ratio and barrier-wait share) the team's probe already collects.
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
// All cursor and deque state lives in the Team (allocated once in New)
// and the body-side Iter is a plain value on the worker's stack, so a
// scheduled loop allocates nothing on the hot path and the zero-alloc
// gates hold at budget 0.
package team

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// Schedule selects how loop iterations are distributed over the team.
type Schedule uint8

const (
	// Static is the historical default: each worker runs one contiguous
	// block computed by Block, the OpenMP schedule(static) of the
	// paper's prototype.
	Static Schedule = iota
	// Dynamic deals fixed-size chunks through a shared atomic cursor;
	// workers grab the next chunk when they finish their current one.
	Dynamic
	// Guided deals geometrically shrinking chunks (remaining/(2n),
	// floored at the grain), so early chunks are big and the tail is
	// fine-grained enough to even out.
	Guided
	// Stealing gives each worker a deque of chunks; an idle worker
	// steals the back half of a victim's remaining range, preserving
	// the owner's locality at the front.
	Stealing
	// Auto starts static and re-evaluates every few regions using the
	// probe's feedback (imbalance ratio, barrier-wait share), escalating
	// static → dynamic → guided → stealing and de-escalating after
	// sustained balance.
	Auto
)

// scheduleNames holds the flag spellings, indexed by Schedule.
var scheduleNames = [...]string{Static: "static", Dynamic: "dynamic", Guided: "guided", Stealing: "stealing", Auto: "auto"}

// String returns the schedule's flag spelling.
func (s Schedule) String() string {
	if int(s) < len(scheduleNames) {
		return scheduleNames[s]
	}
	return "?"
}

// ScheduleNames lists the accepted ParseSchedule spellings, in flag
// help order.
func ScheduleNames() []string { return append([]string(nil), scheduleNames[:]...) }

// ParseSchedule parses a schedule name. The empty string parses as
// Static, so an unset config field keeps the historical behavior.
func ParseSchedule(name string) (Schedule, error) {
	for s, n := range scheduleNames {
		if name == n {
			return Schedule(s), nil
		}
	}
	if name == "" {
		return Static, nil
	}
	return Static, fmt.Errorf("team: unknown schedule %q (want static, dynamic, guided, stealing or auto)", name)
}

// WithSchedule selects the team's loop schedule. The zero value Static
// is the default.
func WithSchedule(s Schedule) Option {
	return func(t *Team) { t.sched = s }
}

// WithGrain sets the chunk grain in iterations for dynamic and stealing
// (the fixed chunk size) and guided (the minimum chunk size). grain < 1
// — the default — sizes chunks automatically from the loop range.
func WithGrain(grain int) Option {
	return func(t *Team) { t.grain = grain }
}

const (
	// loopSlots is the ring of shared cursor words. Successive
	// worksharing loops take successive slots, across regions too, so a
	// slot is reused loopSlots loops later. A region may run any number
	// of loops, but no worker may be loopSlots loops ahead of another:
	// at most loopSlots worksharing loops between two barriers (or a
	// barrier and the join). The fused kernels run at most three.
	loopSlots = 16
	// oversub is the automatic-grain target for dynamic and stealing:
	// about oversub chunks per worker, enough slack to rebalance without
	// drowning in cursor traffic.
	oversub = 8
	// maxChunks caps a loop's chunk count so chunk ordinals and deque
	// bounds always fit their 32-bit halves.
	maxChunks = 1 << 24

	cursorMask = (uint64(1) << 32) - 1
	tagMask    = ^cursorMask
)

// padU64 is an atomic word on its own cache line: loop cursors and
// deque words are CAS-contended by every worker.
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

	sched     Schedule
	blockMode bool // chunks are the nchunks static blocks, not grain-sized
	grain     int
	nchunks   int

	slot *padU64 // shared cursor word (dynamic/guided) or arm word (stealing)
	tag  uint64  // loop-instance tag in the word's high 32 bits
	deq  []padU64

	next, stop int // static/inline ordinal window
	gMin       int // guided minimum chunk size
	gIdx, gLo  int // guided recurrence cache: chunk gIdx starts at offset gLo

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
	s := t.cur
	it.sched = s
	if blocks || s == Static {
		it.blockMode = true
		it.nchunks = n
	}
	if s == Static {
		it.next, it.stop = id, id+1
		return it
	}
	// Slot-consuming schedules: claim this loop's cursor word by its
	// instance number, counted over the team's life. The tag makes the
	// first arriver's claim unambiguous against the slot's previous
	// (dead) loop: consecutive instances walk the ring, so a slot's last
	// tag is loopSlots instances old, never 2^32.
	k := t.loopK[id].v
	t.loopK[id].v = k + 1
	inst := t.loopBase + k
	it.tag = uint64(inst) << 32
	it.slot = &t.loops[inst%loopSlots]
	if !it.blockMode {
		span := hi - lo
		g := t.grain
		if s == Guided {
			if g < 1 {
				g = 1
			}
			it.gMin = g
			it.nchunks = guidedChunks(span, n, g)
		} else {
			if g < 1 {
				g = span / (oversub * n)
			}
			if g < 1 {
				g = 1
			}
			if span/g >= maxChunks {
				g = (span + maxChunks - 1) / maxChunks
			}
			it.grain = g
			it.nchunks = (span + g - 1) / g
		}
	}
	if s == Stealing {
		it.deq = t.deques[inst%loopSlots]
		if it.nchunks > 0 {
			it.armSteal()
		}
	}
	return it
}

// Next advances to the next chunk, returning false when the loop's
// iteration space is exhausted for this worker.
func (it *Iter) Next() bool {
	if it.nchunks == 0 {
		return false
	}
	var c, victim int
	switch it.sched {
	case Stealing:
		var ok bool
		c, victim, ok = it.stealNext()
		if !ok {
			return false
		}
	default:
		if it.slot == nil { // Static or inline
			if it.next >= it.stop {
				return false
			}
			c = it.next
			it.next++
			it.cur = c
			it.Lo, it.Hi = it.chunkRange(c)
			return true
		}
		var ok bool
		c, ok = it.grab()
		if !ok {
			return false
		}
		victim = -1
	}
	if p := it.t.probe; p != nil {
		p.chunk(it.id, c, victim)
	}
	it.cur = c
	it.Lo, it.Hi = it.chunkRange(c)
	return true
}

// Chunk returns the ordinal of the current chunk. Under ReduceBlocks it
// is the block index, the deterministic slot for this chunk's partial.
func (it *Iter) Chunk() int { return it.cur }

// grab claims the next chunk ordinal off the shared cursor. The first
// arriver finds the slot tagged by a dead loop and re-arms it, claiming
// chunk 0 in the same CAS.
func (it *Iter) grab() (int, bool) {
	slot := &it.slot.v
	for {
		v := slot.Load()
		if v&tagMask != it.tag {
			if slot.CompareAndSwap(v, it.tag|1) {
				return 0, true
			}
			continue
		}
		c := int(v & cursorMask)
		if c >= it.nchunks {
			return 0, false
		}
		if slot.CompareAndSwap(v, v+1) {
			return c, true
		}
	}
}

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
		clo, chi := int(v>>32), int(v&cursorMask)
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
			clo, chi := int(v>>32), int(v&cursorMask)
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
	if it.sched == Guided {
		return it.guidedRange(c)
	}
	lo := it.lo + c*it.grain
	hi := lo + it.grain
	if hi > it.hi {
		hi = it.hi
	}
	return lo, hi
}

// guidedRange maps ordinal c through the guided recurrence. A worker's
// ordinals are monotonically increasing (the cursor only moves
// forward), so stepping from the cached position amortizes to O(1) per
// chunk.
func (it *Iter) guidedRange(c int) (int, int) {
	span := it.hi - it.lo
	idx, off := it.gIdx, it.gLo
	if c < idx {
		idx, off = 0, 0
	}
	for idx < c {
		off += guidedSize(span-off, it.t.n, it.gMin)
		idx++
	}
	it.gIdx, it.gLo = idx, off
	lo := it.lo + off
	hi := lo + guidedSize(span-off, it.t.n, it.gMin)
	if hi > it.hi {
		hi = it.hi
	}
	return lo, hi
}

// guidedSize is the guided chunk recurrence: half the per-worker share
// of what remains, floored at the configured grain.
func guidedSize(remaining, n, min int) int {
	s := remaining / (2 * n)
	if s < min {
		s = min
	}
	return s
}

// guidedChunks runs the recurrence to count a guided loop's chunks.
func guidedChunks(span, n, min int) int {
	c, off := 0, 0
	for off < span {
		off += guidedSize(span-off, n, min)
		c++
	}
	return c
}

// Auto-tuning. The master re-evaluates every tuneEvery regions, between
// regions (so every worker of a region sees one agreed schedule), from
// the probe's per-worker busy/wait deltas: the same imbalance
// ratio and barrier-wait share the perfstat anomaly detectors flag. An
// imbalanced window escalates one rung up the static → dynamic →
// guided → stealing ladder; calmEpochs consecutive balanced windows
// walk one rung back down (hysteresis, so the tuner does not flap
// around the threshold).
const (
	tuneEvery    = 32
	escalateImb  = 1.25 // escalate at this busy-time imbalance ratio
	assistImb    = 1.10 // ... or at this ratio when waits pile up too
	escalateWait = 0.20 // barrier-wait share backing an assistImb escalation
	calmImb      = 1.08 // a window at or below this ratio counts as calm
	calmEpochs   = 4
)

type tuner struct {
	cur      Schedule
	epoch    int
	calm     int
	lastBusy []int64
	lastWait []int64
}

// maybeTune runs one tuner step; called by the master from resetRegion,
// before the region's schedule is resolved and published. New gives an
// auto-tuned team a probe, so t.probe is never nil here.
func (t *Team) maybeTune() {
	tn := &t.tun
	tn.epoch++
	if tn.epoch < tuneEvery {
		return
	}
	tn.epoch = 0
	p := t.probe
	var maxB, sumB, sumW int64
	for id := 0; id < t.n; id++ {
		b, w := p.busyNs(id), p.waitNs(id)
		db, dw := b-tn.lastBusy[id], w-tn.lastWait[id]
		tn.lastBusy[id], tn.lastWait[id] = b, w
		sumB += db
		sumW += dw
		if db > maxB {
			maxB = db
		}
	}
	if sumB <= 0 {
		return
	}
	imb := float64(maxB) * float64(t.n) / float64(sumB)
	waitShare := float64(sumW) / float64(sumB+sumW)
	switch {
	case imb >= escalateImb || (imb >= assistImb && waitShare >= escalateWait):
		tn.calm = 0
		if tn.cur < Stealing {
			t.retune(tn.cur + 1)
		}
	case imb <= calmImb:
		tn.calm++
		if tn.calm >= calmEpochs && tn.cur > Static {
			tn.calm = 0
			t.retune(tn.cur - 1)
		}
	default:
		tn.calm = 0
	}
}

func (t *Team) retune(s Schedule) {
	t.tun.cur = s
	t.probe.retuned(s)
}
