package team

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"npbgo/internal/trace"
)

// Probe is the team's one instrument. Every anomaly in the paper was
// found by reading per-thread time and the profile side by side (§5.2:
// CG's thread placement, LU's pipeline stalls), so they reach the
// runtime as one value. A probe always keeps the per-worker metrics —
// busy time, barrier wait, loop chunks and steals — and the region,
// cancellation, panic and join totals; it also annotates the run for
// the Go execution tracer when it was given a tracer.
//
// A team attaches one with WithProbe. Each hook site in the runtime
// tests the team's probe pointer once, so a team without a probe pays
// one nil check per site, and a team with one pays two monotonic clock
// reads per worker region plus padded atomic adds — no locks, no
// allocation, no false sharing. All methods are safe for concurrent use
// from every worker.
type Probe struct {
	workers       []probeSlot
	regions       atomic.Uint64
	cancellations atomic.Uint64
	panics        atomic.Uint64
	barrierWaits  atomic.Uint64 // waits that actually blocked
	barrierWaitNs atomic.Int64  // aggregate, including unattributed waits
	joinNs        atomic.Int64  // master time draining the region join

	tr *trace.Tracer
}

// probeSlot is one worker's counters, padded to its own cache lines so
// concurrent workers never false-share (the same trick the team's
// reduction partials use).
type probeSlot struct {
	busyNs atomic.Int64  // time spent inside region bodies
	waitNs atomic.Int64  // time parked on id-attributed barriers and pipeline tokens
	chunks atomic.Uint64 // loop chunks claimed under a non-static schedule
	steals atomic.Uint64 // chunks taken from another worker's deque
	_      [96]byte      // pad the four 8-byte atomics to 128 bytes
}

// NewProbe creates the probe for a team of the given size (>= 1). tr is
// optional and, when given, should be sized for the same team: it
// annotates regions, blocks, barrier and pipeline waits, chunks and
// phases (internal/trace).
func NewProbe(workers int, tr *trace.Tracer) *Probe {
	if workers < 1 {
		workers = 1
	}
	return &Probe{workers: make([]probeSlot, workers), tr: tr}
}

// WithProbe attaches p to the team; a nil p leaves the team
// uninstrumented.
func WithProbe(p *Probe) Option {
	return func(t *Team) { t.probe = p }
}

// BeginPhase opens a named phase span on the master's trace track, if
// the probe has a tracer.
func (p *Probe) BeginPhase(name string) { p.tr.Log(0, name, trace.Begin) }

// EndPhase closes the phase span BeginPhase opened.
func (p *Probe) EndPhase(name string) { p.tr.Log(0, name, trace.End) }

// panicked counts one panicking worker.
func (p *Probe) panicked(id int) {
	p.panics.Add(1)
	p.tr.Log(id, trace.Panic, "")
}

// cancelled counts the team's (first) cancellation.
func (p *Probe) cancelled(reason error) {
	p.cancellations.Add(1)
	p.tr.Log(-1, trace.Cancel, reason.Error())
}

// chunk counts one loop chunk claimed by worker id under a non-static
// schedule; victim >= 0 marks it as taken from that worker's deque.
func (p *Probe) chunk(id, victim int) {
	if id >= 0 && id < len(p.workers) {
		p.workers[id].chunks.Add(1)
		if victim >= 0 {
			p.workers[id].steals.Add(1)
		}
	}
	if victim >= 0 {
		p.tr.Log(id, trace.Steal, p.tr.ID(victim))
	} else {
		p.tr.Log(id, trace.Chunk, "")
	}
}

// wait is l.wait(g, v, true) with the time spent parked charged to
// worker id's wait slot.
func (p *Probe) wait(l *lot, g *gate, v uint64, id int) bool {
	start := time.Now()
	ok := l.wait(g, v, true)
	p.addWait(id, time.Since(start))
	return ok
}

// await is the counting barrier of Team.await with the probe charged.
// An attributed wait is a Barrier span on the worker's trace track,
// from arrival to release; a worker unwound by poisoning still closes
// it, and the last arriver's span holds no wait. An unattributed wait
// has no worker track to land on.
func (p *Probe) await(t *Team, id int) {
	if id >= 0 {
		p.tr.Log(id, trace.Barrier, trace.Begin)
		defer p.tr.Log(id, trace.Barrier, trace.End)
	}
	gen := t.trip.v.Load()
	if t.arrived.Add(1) == int32(t.n) {
		t.arrived.Store(0)
		t.trip.v.Add(1)
		t.lot.release(&t.trip)
	} else if !p.wait(&t.lot, &t.trip, gen+1, id) {
		panic(regionAbort{})
	}
}

// pipeWait is a pipeline token wait that found no token ready: charged
// as wait time, and a Pipeline span on the worker's trace track.
func (p *Probe) pipeWait(l *lot, g *gate, tok uint64, id int) bool {
	p.tr.Log(id, trace.Pipeline, trace.Begin)
	defer p.tr.Log(id, trace.Pipeline, trace.End)
	return p.wait(l, g, tok, id)
}

// addBusy charges d of region-body time to worker id. Out-of-range ids
// are dropped rather than panicking, so a probe sized for a smaller team
// never crashes the runtime.
func (p *Probe) addBusy(id int, d time.Duration) {
	if id >= 0 && id < len(p.workers) {
		p.workers[id].busyNs.Add(int64(d))
	}
}

// addWait charges d of wait time. id < 0 records an unattributed wait (a
// Team.Barrier call without a worker id), which still counts toward the
// aggregate.
func (p *Probe) addWait(id int, d time.Duration) {
	p.barrierWaits.Add(1)
	p.barrierWaitNs.Add(int64(d))
	if id >= 0 && id < len(p.workers) {
		p.workers[id].waitNs.Add(int64(d))
	}
}

// Stats is a point-in-time snapshot of a Probe, safe to serialize
// (JSON) and to read without synchronization.
type Stats struct {
	Workers       int
	Regions       uint64
	Cancellations uint64
	Panics        uint64
	BarrierWaits  uint64        // waits that blocked
	BarrierWait   time.Duration // aggregate wait, attributed or not
	JoinWait      time.Duration // master wait at region joins
	Busy          []time.Duration
	Wait          []time.Duration
	Chunks        []uint64 // per-worker scheduled-chunk claims
	Steals        []uint64 // per-worker deque steals
}

// Snapshot captures the probe's current counters.
func (p *Probe) Snapshot() *Stats {
	n := len(p.workers)
	s := &Stats{
		Workers:       n,
		Regions:       p.regions.Load(),
		Cancellations: p.cancellations.Load(),
		Panics:        p.panics.Load(),
		BarrierWaits:  p.barrierWaits.Load(),
		BarrierWait:   time.Duration(p.barrierWaitNs.Load()),
		JoinWait:      time.Duration(p.joinNs.Load()),
		Busy:          make([]time.Duration, n),
		Wait:          make([]time.Duration, n),
		Chunks:        make([]uint64, n),
		Steals:        make([]uint64, n),
	}
	for i := range p.workers {
		w := &p.workers[i]
		s.Busy[i] = time.Duration(w.busyNs.Load())
		s.Wait[i] = time.Duration(w.waitNs.Load())
		s.Chunks[i] = w.chunks.Load()
		s.Steals[i] = w.steals.Load()
	}
	return s
}

// Imbalance is the paper's load-balance diagnostic: the busiest
// worker's region time divided by the mean. 1.0 is perfect balance; the
// §5.2 CG anomaly shows up as a ratio near Workers (all work on one or
// two threads). It is 0 when no busy time has been recorded.
func (s *Stats) Imbalance() float64 {
	var sum time.Duration
	for _, b := range s.Busy {
		sum += b
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.Busy))
	return float64(s.MaxBusy()) / mean
}

// MaxBusy returns the largest per-worker busy time.
func (s *Stats) MaxBusy() time.Duration {
	var hi time.Duration
	for _, b := range s.Busy {
		hi = max(hi, b)
	}
	return hi
}

// MinBusy returns the smallest per-worker busy time.
func (s *Stats) MinBusy() time.Duration {
	if len(s.Busy) == 0 {
		return 0
	}
	lo := s.Busy[0]
	for _, b := range s.Busy[1:] {
		lo = min(lo, b)
	}
	return lo
}

// String renders a one-look summary of the snapshot.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "regions=%d cancels=%d panics=%d imbalance=%.2f barrier=%.3fs join=%.3fs",
		s.Regions, s.Cancellations, s.Panics, s.Imbalance(),
		s.BarrierWait.Seconds(), s.JoinWait.Seconds())
	for i := range s.Busy {
		fmt.Fprintf(&b, "\n  w%-2d busy=%.3fs wait=%.3fs", i, s.Busy[i].Seconds(), s.Wait[i].Seconds())
		if i < len(s.Chunks) && (s.Chunks[i] > 0 || s.Steals[i] > 0) {
			fmt.Fprintf(&b, " chunks=%d steals=%d", s.Chunks[i], s.Steals[i])
		}
	}
	return b.String()
}
