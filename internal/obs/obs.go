// Package obs is the runtime observability layer: low-overhead
// per-region metrics for the team runtime.
//
// Every anomaly in the paper was found by exactly this kind of
// instrumentation: CG's thread-placement pathology (§5.2), FT's memory
// limits and LU's pipeline stalls all surfaced as per-phase and
// per-thread timing asymmetries. A Recorder attaches to a team
// (team.WithRecorder) and accumulates, per worker, busy time and
// barrier-wait time, plus region/cancellation/panic counts; Snapshot
// derives the worker-imbalance ratio (max busy / mean busy), the
// paper's load-balance diagnostic.
//
// The recorder is engineered to disappear when unused: a team without a
// recorder pays one nil pointer check per region, and a team with one
// pays two monotonic clock reads per worker region plus padded atomic
// adds — no locks, no allocation, no false sharing.
package obs

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"npbgo/internal/perfcount"
)

// slot is one worker's counters, padded to its own cache lines so
// concurrent workers never false-share (the same trick the team's
// reduction partials use).
type slot struct {
	busyNs atomic.Int64  // time spent inside region bodies
	waitNs atomic.Int64  // time parked on id-attributed barriers
	chunks atomic.Uint64 // loop chunks claimed under a non-static schedule
	steals atomic.Uint64 // chunks taken from another worker's deque
	_      [96]byte      // pad the four 8-byte atomics to 128 bytes
}

// Recorder accumulates runtime metrics for one team. All methods are
// safe for concurrent use from every worker; a nil *Recorder is the
// disabled state and must be checked by the instrumented code, not
// passed in.
type Recorder struct {
	workers       []slot
	regions       atomic.Uint64
	cancellations atomic.Uint64
	panics        atomic.Uint64
	barrierWaits  atomic.Uint64 // await calls that actually blocked
	barrierWaitNs atomic.Int64  // aggregate, including unattributed waits
	joinNs        atomic.Int64  // master time draining the region join
	retunes       atomic.Uint64 // auto-tuner schedule switches

	// pc is the optional hardware-counter sampler folded into snapshots
	// (AttachCounters); atomic so a Snapshot may race a late attach.
	pc atomic.Pointer[perfcount.Sampler]
}

// New creates a recorder for a team of the given size (>= 1).
func New(workers int) *Recorder {
	if workers < 1 {
		workers = 1
	}
	return &Recorder{workers: make([]slot, workers)}
}

// Workers returns the worker count the recorder was sized for.
func (r *Recorder) Workers() int { return len(r.workers) }

// IncRegion counts one parallel region start.
func (r *Recorder) IncRegion() { r.regions.Add(1) }

// IncCancel counts a team cancellation (the first Cancel only; the team
// flag is sticky).
func (r *Recorder) IncCancel() { r.cancellations.Add(1) }

// IncPanic counts one panicking worker.
func (r *Recorder) IncPanic() { r.panics.Add(1) }

// AddBusy charges d of region-body time to worker id. Out-of-range ids
// are dropped rather than panicking, so a recorder sized for a smaller
// team never crashes the runtime.
func (r *Recorder) AddBusy(id int, d time.Duration) {
	if id >= 0 && id < len(r.workers) {
		r.workers[id].busyNs.Add(int64(d))
	}
}

// AddWait charges d of barrier-wait time. id < 0 records an
// unattributed wait (a Team.Barrier call without a worker id), which
// still counts toward the aggregate.
func (r *Recorder) AddWait(id int, d time.Duration) {
	r.barrierWaits.Add(1)
	r.barrierWaitNs.Add(int64(d))
	if id >= 0 && id < len(r.workers) {
		r.workers[id].waitNs.Add(int64(d))
	}
}

// AddJoin charges d of master time spent waiting for the last worker at
// the implicit region join — the skew of the slowest worker past the
// master's own finish.
func (r *Recorder) AddJoin(d time.Duration) { r.joinNs.Add(int64(d)) }

// IncChunk counts one loop chunk claimed by worker id under a
// non-static schedule. Out-of-range ids are dropped, as with AddBusy.
func (r *Recorder) IncChunk(id int) {
	if id >= 0 && id < len(r.workers) {
		r.workers[id].chunks.Add(1)
	}
}

// IncSteal counts one chunk worker id took from another worker's deque
// under the stealing schedule.
func (r *Recorder) IncSteal(id int) {
	if id >= 0 && id < len(r.workers) {
		r.workers[id].steals.Add(1)
	}
}

// IncRetune counts one schedule switch by the team's auto-tuner.
func (r *Recorder) IncRetune() { r.retunes.Add(1) }

// AttachCounters folds a hardware-counter sampler into this recorder's
// snapshots: Snapshot carries the sampler's accumulated cycles/IPC/
// cache-miss figures alongside the timing metrics. A nil sampler
// (counters unavailable or not requested) leaves snapshots exactly as
// before.
func (r *Recorder) AttachCounters(pc *perfcount.Sampler) { r.pc.Store(pc) }

// BusyNs returns worker id's accumulated region-body time in
// nanoseconds, without allocating — the auto-tuner's feedback read.
func (r *Recorder) BusyNs(id int) int64 {
	if id < 0 || id >= len(r.workers) {
		return 0
	}
	return r.workers[id].busyNs.Load()
}

// WaitNs returns worker id's accumulated barrier-wait time in
// nanoseconds, without allocating.
func (r *Recorder) WaitNs(id int) int64 {
	if id < 0 || id >= len(r.workers) {
		return 0
	}
	return r.workers[id].waitNs.Load()
}

// Stats is a point-in-time snapshot of a Recorder, safe to serialize
// (JSON) and to read without synchronization.
type Stats struct {
	Workers       int
	Regions       uint64
	Cancellations uint64
	Panics        uint64
	BarrierWaits  uint64        // await calls that blocked
	BarrierWait   time.Duration // aggregate wait, attributed or not
	JoinWait      time.Duration // master wait at region joins
	Retunes       uint64        // auto-tuner schedule switches
	Busy          []time.Duration
	Wait          []time.Duration
	Chunks        []uint64 // per-worker scheduled-chunk claims
	Steals        []uint64 // per-worker deque steals

	// Counters is the hardware-counter snapshot when a sampler is
	// attached (AttachCounters); nil when counters are disabled or
	// unavailable.
	Counters *perfcount.Stats
}

// Snapshot captures the recorder's current counters.
func (r *Recorder) Snapshot() *Stats {
	s := &Stats{
		Workers:       len(r.workers),
		Regions:       r.regions.Load(),
		Cancellations: r.cancellations.Load(),
		Panics:        r.panics.Load(),
		BarrierWaits:  r.barrierWaits.Load(),
		BarrierWait:   time.Duration(r.barrierWaitNs.Load()),
		JoinWait:      time.Duration(r.joinNs.Load()),
		Retunes:       r.retunes.Load(),
		Busy:          make([]time.Duration, len(r.workers)),
		Wait:          make([]time.Duration, len(r.workers)),
		Chunks:        make([]uint64, len(r.workers)),
		Steals:        make([]uint64, len(r.workers)),
	}
	for i := range r.workers {
		s.Busy[i] = time.Duration(r.workers[i].busyNs.Load())
		s.Wait[i] = time.Duration(r.workers[i].waitNs.Load())
		s.Chunks[i] = r.workers[i].chunks.Load()
		s.Steals[i] = r.workers[i].steals.Load()
	}
	if pc := r.pc.Load(); pc != nil {
		s.Counters = pc.Snapshot()
	}
	return s
}

// Imbalance is the paper's load-balance diagnostic: the busiest
// worker's region time divided by the mean. 1.0 is perfect balance; the
// §5.2 CG anomaly shows up as a ratio near Workers (all work on one or
// two threads). It is 0 when no busy time has been recorded.
func (s *Stats) Imbalance() float64 {
	var max, sum time.Duration
	for _, b := range s.Busy {
		sum += b
		if b > max {
			max = b
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(s.Busy))
	return float64(max) / mean
}

// MaxBusy returns the largest per-worker busy time.
func (s *Stats) MaxBusy() time.Duration {
	var max time.Duration
	for _, b := range s.Busy {
		if b > max {
			max = b
		}
	}
	return max
}

// MinBusy returns the smallest per-worker busy time.
func (s *Stats) MinBusy() time.Duration {
	if len(s.Busy) == 0 {
		return 0
	}
	min := s.Busy[0]
	for _, b := range s.Busy[1:] {
		if b < min {
			min = b
		}
	}
	return min
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
