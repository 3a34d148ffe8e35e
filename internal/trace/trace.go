// Package trace is the execution tracer of the runtime: timestamped
// per-worker event timelines recorded into fixed-capacity ring buffers,
// exportable as Chrome/Perfetto trace-event JSON and as a plain-text
// timeline summary.
//
// The team probe's counters answer "how much time did worker w spend
// busy and waiting"; this package answers *when*. The paper's diagnoses all hang
// on timeline reasoning — CG's thread placement (§5.2) showed up as two
// processors doing all the work, LU's pipelined SSOR sweeps stall
// workers at per-plane synchronization, IS gives each thread too little
// work between barriers — and a timeline turns "LU scales poorly" into
// "worker 7 spent 40% of iteration k parked at the pipeline".
//
// The tracer rides on the team's probe (team.NewProbe) and follows its
// engineering contract: a team without a probe pays one nil pointer
// check per instrumentation point, and a team with a tracer pays a clock read plus an atomic slot
// claim and a plain struct store into a cache-line-padded per-worker
// ring — no locks, no allocation on the hot path. Rings have fixed
// capacity; once a ring is full further events are counted as drops
// rather than recorded, so a trace is always a complete prefix of the
// run (begin/end pairing is validated on export, and a truncated trace
// is detectable from the drop counters).
//
// Tracks and writers: worker w's events are recorded only by the
// goroutine running worker w, the master track only by the goroutine
// driving the team's regions, and the runtime track is reserved for
// asynchronous events (cancellation from a context watcher). Keeping
// each ring single-writer is what guarantees per-track timestamp
// monotonicity without any ordering machinery.
package trace

import (
	"sync/atomic"
	"time"
)

// Kind classifies one trace event.
type Kind uint8

// Event kinds. Begin/End kinds open and close spans and must pair and
// nest strictly within one track; the remaining kinds are instants.
const (
	KindRegionBegin    Kind = iota + 1 // master: parallel region forked
	KindRegionEnd                      // master: region join complete
	KindBlockBegin                     // worker: region body started
	KindBlockEnd                       // worker: region body finished
	KindBarrierArrive                  // worker: arrived at an id-attributed barrier
	KindBarrierRelease                 // worker: released from that barrier
	KindPipeWaitBegin                  // worker: blocked on a pipeline token
	KindPipeWaitEnd                    // worker: pipeline token consumed
	KindPipeSignal                     // worker instant: pipeline token posted
	KindCancel                         // runtime instant: team cancelled
	KindPanic                          // worker instant: panic captured
	KindPhaseBegin                     // master: named benchmark phase started
	KindPhaseEnd                       // master: named benchmark phase finished
	KindChunk                          // worker instant: scheduled loop chunk claimed
	KindSteal                          // worker instant: chunk stolen from another worker's deque
)

// String returns the short event-kind label used by the exporters.
func (k Kind) String() string {
	switch k {
	case KindRegionBegin, KindRegionEnd:
		return "region"
	case KindBlockBegin, KindBlockEnd:
		return "work"
	case KindBarrierArrive, KindBarrierRelease:
		return "barrier"
	case KindPipeWaitBegin, KindPipeWaitEnd:
		return "pipeline wait"
	case KindPipeSignal:
		return "pipeline post"
	case KindCancel:
		return "cancel"
	case KindPanic:
		return "panic"
	case KindPhaseBegin, KindPhaseEnd:
		return "phase"
	case KindChunk:
		return "chunk"
	case KindSteal:
		return "steal"
	}
	return "?"
}

// Event is one timestamped trace record. Worker identity is implied by
// the ring the event sits in, so the struct stays small enough that a
// ring slot is one store.
type Event struct {
	TS   int64  // nanoseconds since the tracer epoch (monotonic clock)
	ID   uint64 // correlation id: region sequence, barrier generation, pipeline token
	Kind Kind
	Name string // phase name or cancellation reason; "" for most kinds
}

// ring is one track's buffer, padded so concurrent tracks never
// false-share the claim counters.
type ring struct {
	_      [64]byte
	pos    atomic.Uint64 // total emit attempts; valid events are [0, min(pos, cap))
	_      [56]byte
	events []Event
}

func (r *ring) emit(e Event) {
	idx := r.pos.Add(1) - 1
	if idx >= uint64(len(r.events)) {
		return // ring full: counted as a drop, never recorded
	}
	r.events[idx] = e
}

// Tracer records event timelines for one team: one ring per worker,
// one master ring for region/phase events, and one runtime ring
// for asynchronous events. A nil *Tracer is the disabled state; the
// team probe checks the pointer before forwarding to it.
type Tracer struct {
	rings []ring // workers 0..n-1, then master, then runtime
	n     int
	epoch time.Time
}

// DefaultCapacity is the per-track event capacity used by New unless
// WithCapacity overrides it. At ~48 bytes per event the default costs
// about 3 MiB per track — enough for every class-S and most class-W
// runs; larger runs truncate and report drops.
const DefaultCapacity = 1 << 16

// Option configures a Tracer at construction.
type Option func(*config)

type config struct{ capacity int }

// WithCapacity sets the per-track ring capacity in events (>= 1).
func WithCapacity(events int) Option {
	return func(c *config) {
		if events >= 1 {
			c.capacity = events
		}
	}
}

// New creates a tracer for a team of the given worker count (>= 1).
// The epoch — timestamp zero — is the moment of creation.
func New(workers int, opts ...Option) *Tracer {
	if workers < 1 {
		workers = 1
	}
	cfg := config{capacity: DefaultCapacity}
	for _, o := range opts {
		o(&cfg)
	}
	t := &Tracer{
		rings: make([]ring, workers+2),
		n:     workers,
		epoch: time.Now(),
	}
	for i := range t.rings {
		t.rings[i].events = make([]Event, cfg.capacity)
	}
	return t
}

// Workers returns the worker count the tracer was sized for.
func (t *Tracer) Workers() int { return t.n }

func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// worker clamps id to a valid worker ring so an out-of-range id can
// never crash the runtime (the team probe's drop-don't-panic stance);
// out-of-range events land on the runtime ring instead.
func (t *Tracer) ring(id int) *ring {
	if id < 0 || id >= t.n {
		return &t.rings[t.n+1]
	}
	return &t.rings[id]
}

func (t *Tracer) master() *ring  { return &t.rings[t.n] }
func (t *Tracer) runtime() *ring { return &t.rings[t.n+1] }

// RegionBegin marks the master forking parallel region seq.
func (t *Tracer) RegionBegin(seq uint64) {
	t.master().emit(Event{TS: t.now(), ID: seq, Kind: KindRegionBegin})
}

// RegionEnd marks the master completing region seq's join.
func (t *Tracer) RegionEnd(seq uint64) {
	t.master().emit(Event{TS: t.now(), ID: seq, Kind: KindRegionEnd})
}

// BlockBegin marks worker id starting its body of region seq.
func (t *Tracer) BlockBegin(id int, seq uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: seq, Kind: KindBlockBegin})
}

// BlockEnd marks worker id finishing its body of region seq.
func (t *Tracer) BlockEnd(id int, seq uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: seq, Kind: KindBlockEnd})
}

// BarrierArrive marks worker id arriving at the barrier trip with
// generation gen. Only id-attributed barriers (Team.BarrierID) are
// traced; an unattributed Team.Barrier has no worker ring to land on.
func (t *Tracer) BarrierArrive(id int, gen uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: gen, Kind: KindBarrierArrive})
}

// BarrierRelease marks worker id leaving barrier generation gen —
// released by the last arriver, or unwound by poisoning; either way the
// arrive span closes.
func (t *Tracer) BarrierRelease(id int, gen uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: gen, Kind: KindBarrierRelease})
}

// PipeWaitBegin marks worker id blocking for pipeline token tok.
func (t *Tracer) PipeWaitBegin(id int, tok uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: tok, Kind: KindPipeWaitBegin})
}

// PipeWaitEnd marks worker id consuming pipeline token tok.
func (t *Tracer) PipeWaitEnd(id int, tok uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: tok, Kind: KindPipeWaitEnd})
}

// PipeSignal marks worker id posting pipeline token tok (instant).
func (t *Tracer) PipeSignal(id int, tok uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: tok, Kind: KindPipeSignal})
}

// Chunk marks worker id claiming chunk ordinal c of a dynamically
// scheduled loop — the Perfetto-visible pulse of the chunk traffic the
// probe's chunk counters total up.
func (t *Tracer) Chunk(id int, c uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: c, Kind: KindChunk})
}

// Steal marks worker id taking a chunk from worker victim's deque under
// the stealing schedule.
func (t *Tracer) Steal(id int, victim uint64) {
	t.ring(id).emit(Event{TS: t.now(), ID: victim, Kind: KindSteal})
}

// Cancel marks the team's (first) cancellation. It may be called from
// any goroutine — a context watcher, typically — so it records on the
// runtime track, never a worker's.
func (t *Tracer) Cancel(reason string) {
	t.runtime().emit(Event{TS: t.now(), Kind: KindCancel, Name: reason})
}

// Panic marks a panic captured on worker id.
func (t *Tracer) Panic(id int) {
	t.ring(id).emit(Event{TS: t.now(), Kind: KindPanic})
}

// BeginPhase opens a named benchmark phase span on the master track
// (the per-phase brackets of the paper's profile tables: "sweeps",
// "t_conj_grad", ...). Phases must strictly nest and must be closed by
// EndPhase with the same name on the same goroutine. Benchmarks do not
// call it directly: kernel.Env.Start/Stop bracket timer and trace phase
// together, and the timerpair analyzer checks their pairing.
func (t *Tracer) BeginPhase(name string) {
	t.master().emit(Event{TS: t.now(), Kind: KindPhaseBegin, Name: name})
}

// EndPhase closes the innermost open phase span named name.
func (t *Tracer) EndPhase(name string) {
	t.master().emit(Event{TS: t.now(), Kind: KindPhaseEnd, Name: name})
}

// Track is one timeline of a Snapshot.
type Track struct {
	Name   string // "worker 0", ..., "master", "runtime"
	Events []Event
	Drops  uint64 // events lost to ring capacity
}

// Snapshot is a copied, read-only view of the tracer's rings, safe to
// export and serialize. Take it only when the traced team is quiescent
// (after the run's regions have joined): ring slots are plain stores,
// so a snapshot concurrent with recording would race.
type Snapshot struct {
	Workers int
	Epoch   time.Time
	Tracks  []Track // Workers worker tracks, then master, then runtime
}

// Snapshot copies the recorded prefix of every ring.
func (t *Tracer) Snapshot() *Snapshot {
	s := &Snapshot{Workers: t.n, Epoch: t.epoch, Tracks: make([]Track, len(t.rings))}
	for i := range t.rings {
		r := &t.rings[i]
		pos := r.pos.Load()
		n := pos
		if cap := uint64(len(r.events)); n > cap {
			s.Tracks[i].Drops = n - cap
			n = cap
		}
		s.Tracks[i].Events = append([]Event(nil), r.events[:n]...)
		switch {
		case i < t.n:
			s.Tracks[i].Name = workerName(i)
		case i == t.n:
			s.Tracks[i].Name = "master"
		default:
			s.Tracks[i].Name = "runtime"
		}
	}
	return s
}

// Drops returns the total number of events lost to ring capacity
// across all tracks.
func (s *Snapshot) Drops() uint64 {
	var d uint64
	for _, tr := range s.Tracks {
		d += tr.Drops
	}
	return d
}

// Events returns the total number of recorded events across all tracks.
func (s *Snapshot) Events() int {
	n := 0
	for _, tr := range s.Tracks {
		n += len(tr.Events)
	}
	return n
}
