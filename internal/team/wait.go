package team

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// spinPolls is how many times a waiter polls its word, one pause() per
// poll, before it parks: about 300 us where a poll takes 19 ns. Both the
// count and the pause() were chosen from paired benchmark runs: a budget
// shorter than the waits of a class-S region (under about 45 us) is
// slower than not polling at all; from there to about 150 us a partner
// the host de-scheduled for a moment still costs a park and a wake;
// 8,000 to 32,000 polls read alike; at 64,000 workers polling through a
// master-only phase slow the master; and polls without pause() slow a
// memory-bound partner on the sibling thread. DESIGN.md "Wait policy"
// has the variants and their numbers.
const spinPolls = 16000

// gate is one waitable word on its own cache line: a counter that only
// grows, and how many waiters are parked for it. Region dispatch, the
// join, the barrier generation and every pipeline token are gates.
type gate struct {
	v      atomic.Uint64
	parked atomic.Int32
	_      [52]byte
}

// lot is the team's one way to wait: poll a gate for a bounded budget,
// then park on the condition variable; a releaser takes the mutex only
// when its gate has parked waiters. It also holds the two words every
// abortable wait watches, so a panic or a cancellation reaches a worker
// wherever it waits.
type lot struct {
	spin   int // poll budget; 0 when the team has more workers than Ps
	mu     sync.Mutex
	cond   sync.Cond
	broken atomic.Bool // a worker of the current region panicked
	halt   atomic.Bool // the team was cancelled; sticky
}

// init sizes the budget for n waiters. A poller holds its P, so when
// the workers cannot all run at once the one being waited for may be
// the one kept off a P: such a team parks at once.
func (l *lot) init(n int) {
	l.cond.L = &l.mu
	if n <= runtime.GOMAXPROCS(0) {
		l.spin = spinPolls
	}
}

func (l *lot) aborted() bool { return l.broken.Load() || l.halt.Load() }

// wait returns once g has reached target. An abortable wait also
// returns when the region fails or the team is cancelled, and reports
// false if either has happened, reached or not.
func (l *lot) wait(g *gate, target uint64, abortable bool) bool {
	for i := l.spin; i > 0 && g.v.Load() < target; i-- {
		if abortable && l.aborted() {
			return false
		}
		pause()
	}
	if g.v.Load() < target {
		l.mu.Lock()
		g.parked.Add(1)
		for g.v.Load() < target && !(abortable && l.aborted()) {
			l.cond.Wait()
		}
		g.parked.Add(-1)
		l.mu.Unlock()
	}
	return !(abortable && l.aborted())
}

// release wakes g's parked waiters; the caller has already advanced
// g.v. A waiter counts itself parked before its last look at g.v, so
// either it sees the new value or release sees it parked.
func (l *lot) release(g *gate) {
	if g.parked.Load() != 0 {
		l.wakeAll()
	}
}

// wakeAll makes every parked waiter look at its condition again.
func (l *lot) wakeAll() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}
