package team

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"npbgo/internal/perfcount"
	"npbgo/internal/trace"
)

// Probe is the team's one instrument. Every anomaly in the paper was
// found by reading per-thread time, hardware counters and the profile
// side by side (§5.2: CG's thread placement, LU's pipeline stalls), so
// the three reach the runtime as one value. A probe always keeps the
// per-worker metrics — busy time, barrier wait, loop chunks and steals —
// and the region, cancellation, panic, join and retune totals; it also
// forwards to an execution tracer and a hardware-counter sampler when
// it was given them.
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
	retunes       atomic.Uint64 // auto-tuner schedule switches
	// seq numbers parallel regions for trace correlation; it only
	// advances while a tracer is attached.
	seq atomic.Uint64

	tr *trace.Tracer
	pc *perfcount.Sampler
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

// NewProbe creates the probe for a team of the given size (>= 1). tr
// and pc are optional and, when given, should be sized for the same
// team: the tracer records region, block, barrier, pipeline, chunk and
// phase events on per-worker rings, and the sampler's perf event groups
// are bound by the team's workers (slots 1..n-1; slot 0, the master, is
// bound by the run driver that owns the calling goroutine) and read at
// every region entry and exit.
func NewProbe(workers int, tr *trace.Tracer, pc *perfcount.Sampler) *Probe {
	if workers < 1 {
		workers = 1
	}
	return &Probe{workers: make([]probeSlot, workers), tr: tr, pc: pc}
}

// WithProbe attaches p to the team; a nil p leaves the team
// uninstrumented.
func WithProbe(p *Probe) Option {
	return func(t *Team) { t.probe = p }
}

// BeginPhase opens a named master-side phase span on the probe's
// tracer, if it has one.
func (p *Probe) BeginPhase(name string) {
	if p.tr != nil {
		p.tr.BeginPhase(name)
	}
}

// EndPhase closes the phase span BeginPhase opened.
func (p *Probe) EndPhase(name string) {
	if p.tr != nil {
		p.tr.EndPhase(name)
	}
}

// regionBegin counts one parallel region and, when tracing, opens its
// span (and a runtime/trace region, so `go tool trace` shows the team's
// fork-join structure next to the scheduler view). regionEnd takes what
// it returns.
func (p *Probe) regionBegin() (seq uint64, end func()) {
	p.regions.Add(1)
	if p.tr == nil {
		return 0, nil
	}
	seq = p.seq.Add(1)
	end = trace.StartRegion("team.region")
	p.tr.RegionBegin(seq)
	return seq, end
}

func (p *Probe) regionEnd(seq uint64, end func()) {
	if p.tr != nil {
		p.tr.RegionEnd(seq)
		end()
	}
}

// blockBegin opens worker id's share of the current region and returns
// the start time blockEnd charges from.
func (p *Probe) blockBegin(id int) time.Time {
	if p.tr != nil {
		p.tr.BlockBegin(id, p.seq.Load())
	}
	start := time.Now()
	if p.pc != nil {
		p.pc.RegionStart(id)
	}
	return start
}

// blockEnd closes what blockBegin opened, in reverse order: counter
// deltas, then busy time, then the trace block. The master cannot start
// the next region before this worker has finished, so seq still names
// the region the block began in.
func (p *Probe) blockEnd(id int, start time.Time) {
	if p.pc != nil {
		p.pc.RegionEnd(id)
	}
	p.addBusy(id, time.Since(start))
	if p.tr != nil {
		p.tr.BlockEnd(id, p.seq.Load())
	}
}

// panicked counts one panicking worker.
func (p *Probe) panicked(id int) {
	p.panics.Add(1)
	if p.tr != nil {
		p.tr.Panic(id)
	}
}

// cancelled counts the team's (first) cancellation.
func (p *Probe) cancelled(reason error) {
	p.cancellations.Add(1)
	if p.tr != nil {
		p.tr.Cancel(reason.Error())
	}
}

// chunk counts one loop chunk claimed by worker id under a non-static
// schedule; victim >= 0 marks it as taken from that worker's deque.
func (p *Probe) chunk(id, c, victim int) {
	if id >= 0 && id < len(p.workers) {
		p.workers[id].chunks.Add(1)
		if victim >= 0 {
			p.workers[id].steals.Add(1)
		}
	}
	if p.tr != nil {
		if victim >= 0 {
			p.tr.Steal(id, uint64(victim))
		} else {
			p.tr.Chunk(id, uint64(c))
		}
	}
}

// retuned counts one schedule switch by the team's auto-tuner.
func (p *Probe) retuned(s Schedule) {
	p.retunes.Add(1)
	if p.tr != nil {
		p.tr.Retune(s.String())
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
// When tracing an attributed wait, arrivals and their events happen
// under tripMu, so they are totally ordered: the latest arrive timestamp
// of a generation really is the worker whose arrival tripped the
// barrier, and its release precedes everyone else's — what the
// exporter's flow linking relies on. A worker unwound by poisoning still
// emits its release, so arrive spans always close. The last arriver
// records no wait.
func (p *Probe) await(t *Team, id int) {
	tr := p.tr
	if id < 0 {
		tr = nil // an unattributed wait has no worker timeline to land on
	}
	if tr != nil {
		t.tripMu.Lock()
	}
	gen := t.trip.v.Load()
	if tr != nil {
		tr.BarrierArrive(id, gen)
	}
	last := t.arrived.Add(1) == int32(t.n)
	if last {
		t.arrived.Store(0)
		if tr != nil {
			tr.BarrierRelease(id, gen)
		}
		t.trip.v.Add(1)
	}
	if tr != nil {
		t.tripMu.Unlock()
	}
	if last {
		t.lot.release(&t.trip)
		return
	}
	ok := p.wait(&t.lot, &t.trip, gen+1, id)
	if tr != nil {
		tr.BarrierRelease(id, gen)
	}
	if !ok {
		panic(regionAbort{})
	}
}

// pipeWait is a pipeline token wait that found no token ready: charged
// as wait time, and a span on the worker's trace timeline.
func (p *Probe) pipeWait(l *lot, g *gate, tok uint64, id int) bool {
	if p.tr != nil {
		p.tr.PipeWaitBegin(id, tok)
	}
	ok := p.wait(l, g, tok, id)
	if p.tr != nil {
		p.tr.PipeWaitEnd(id, tok)
	}
	return ok
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

// busyNs and waitNs read worker id's accumulated busy and wait time
// without allocating — the auto-tuner's feedback read.
func (p *Probe) busyNs(id int) int64 {
	if id >= len(p.workers) {
		return 0
	}
	return p.workers[id].busyNs.Load()
}

func (p *Probe) waitNs(id int) int64 {
	if id >= len(p.workers) {
		return 0
	}
	return p.workers[id].waitNs.Load()
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
	Retunes       uint64        // auto-tuner schedule switches
	Busy          []time.Duration
	Wait          []time.Duration
	Chunks        []uint64 // per-worker scheduled-chunk claims
	Steals        []uint64 // per-worker deque steals

	// Counters is the hardware-counter snapshot of the probe's sampler;
	// nil when the probe has none.
	Counters *perfcount.Stats
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
		Retunes:       p.retunes.Load(),
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
	if p.pc != nil {
		s.Counters = p.pc.Snapshot()
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
	if s.Retunes > 0 {
		fmt.Fprintf(&b, " retunes=%d", s.Retunes)
	}
	for i := range s.Busy {
		fmt.Fprintf(&b, "\n  w%-2d busy=%.3fs wait=%.3fs", i, s.Busy[i].Seconds(), s.Wait[i].Seconds())
		if i < len(s.Chunks) && (s.Chunks[i] > 0 || s.Steals[i] > 0) {
			fmt.Fprintf(&b, " chunks=%d steals=%d", s.Chunks[i], s.Steals[i])
		}
	}
	if s.Counters != nil {
		fmt.Fprintf(&b, "\n  counters: %s", s.Counters)
	}
	return b.String()
}
