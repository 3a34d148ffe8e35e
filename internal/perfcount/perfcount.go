// Package perfcount is the hardware-counter attribution layer: a Linux
// perf_event_open-based sampler that charges CPU cycles, retired
// instructions, last-level-cache traffic and branch misses to each team
// worker, region by region. It answers the question the obs/trace
// layers cannot: not *where* the time went, but *why* — the paper
// explains its Java-vs-Fortran gaps and scaling anomalies by
// hypothesizing about cache behaviour and memory traffic (§4, §5), and
// this package turns those hypotheses into measured miss rates.
//
// One Sampler serves one run. Each worker owns a perf event *group* —
// all six events opened against the worker's locked OS thread and read
// atomically in a single read(2) — so cycles, instructions and misses
// are mutually consistent per sample. A team whose probe holds the
// sampler (team.NewProbe) reads the group at region start and stop and
// accumulates the deltas into padded per-worker atomic slots, exactly
// the shape of the probe's own. Derived figures (instructions per cycle, LLC miss rate)
// come out of Snapshot.
//
// The contract is nil-disabled, like the team probe that carries it: a
// team without a sampler pays one pointer check per region. And the
// layer degrades gracefully: availability is probed once per process
// (perf_event_paranoid policy, missing PMU, non-Linux build), and when
// the probe fails New returns an *UnavailableError whose reason is
// journaled as "counters: unavailable (<reason>)" — CI containers and
// cross-OS builds stay green, with the absence recorded instead of
// silently reporting zeros.
//
// The hot path holds the suite's zero-allocation discipline: read
// buffers are hoisted into the per-worker group state at construction,
// the group read is a raw syscall into that buffer, and delta
// accumulation is plain atomic adds — no allocation after Bind.
package perfcount

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// UnavailableError reports why hardware counters cannot be used in this
// process (restrictive perf_event_paranoid, no PMU exposed to the
// container/VM, non-Linux build). It is the reason behind every
// "counters: unavailable (...)" note in journals and cell metrics.
type UnavailableError struct{ Reason string }

func (e *UnavailableError) Error() string { return e.Reason }

// Counter field indices: every event in a set maps its delta onto one
// of these named accumulators.
const (
	fCycles = iota
	fInstructions
	fLLCLoads
	fLLCMisses
	fBranchMisses
	fTaskClock
	fCPUClock
	fPageFaults
	fCtxSwitches
	nFields
)

// Values is one worker's (or the run total's) counter readings. The
// first six fields are the hardware set; the last three belong to the
// software fallback set used where no PMU is exposed (NewSoftware).
type Values struct {
	TimeEnabledNs uint64 `json:"time_enabled_ns,omitempty"`
	TimeRunningNs uint64 `json:"time_running_ns,omitempty"`
	Cycles        uint64 `json:"cycles,omitempty"`
	Instructions  uint64 `json:"instructions,omitempty"`
	LLCLoads      uint64 `json:"llc_loads,omitempty"`
	LLCMisses     uint64 `json:"llc_misses,omitempty"`
	BranchMisses  uint64 `json:"branch_misses,omitempty"`
	TaskClockNs   uint64 `json:"task_clock_ns,omitempty"`
	CPUClockNs    uint64 `json:"cpu_clock_ns,omitempty"`
	PageFaults    uint64 `json:"page_faults,omitempty"`
	CtxSwitches   uint64 `json:"ctx_switches,omitempty"`
}

// add charges delta to the named field.
func (v *Values) add(field int, delta uint64) {
	switch field {
	case fCycles:
		v.Cycles += delta
	case fInstructions:
		v.Instructions += delta
	case fLLCLoads:
		v.LLCLoads += delta
	case fLLCMisses:
		v.LLCMisses += delta
	case fBranchMisses:
		v.BranchMisses += delta
	case fTaskClock:
		v.TaskClockNs += delta
	case fCPUClock:
		v.CPUClockNs += delta
	case fPageFaults:
		v.PageFaults += delta
	case fCtxSwitches:
		v.CtxSwitches += delta
	}
}

// IPC is instructions retired per CPU cycle — the paper's §4.2
// efficiency discussion, measured. 0 when no cycles were counted.
func (v Values) IPC() float64 {
	if v.Cycles == 0 {
		return 0
	}
	return float64(v.Instructions) / float64(v.Cycles)
}

// LLCMissRate is last-level-cache read misses per read access — the
// locality evidence behind every cache-blocking decision. 0 when no
// loads were counted.
func (v Values) LLCMissRate() float64 {
	if v.LLCLoads == 0 {
		return 0
	}
	return float64(v.LLCMisses) / float64(v.LLCLoads)
}

// Scale is the multiplexing correction running/enabled: below 1.0 the
// kernel time-shared the PMU between groups and raw counts undercount
// by that factor. 1 when the group was never descheduled (or never
// enabled).
func (v Values) Scale() float64 {
	if v.TimeEnabledNs == 0 {
		return 1
	}
	return float64(v.TimeRunningNs) / float64(v.TimeEnabledNs)
}

// Stats is a point-in-time snapshot of a Sampler: run totals plus the
// per-worker split, safe to serialize and read without synchronization.
// It is the counter payload of report.CellMetrics ("counters") and of
// team.Stats.Counters.
type Stats struct {
	// Set names the event set: "hardware" (the full
	// cycles/instructions/LLC group) or "software" (the PMU-less
	// fallback used by tests).
	Set string `json:"set"`
	// Workers is the worker count the sampler was sized for.
	Workers int `json:"workers"`
	// Note carries a non-fatal degradation, e.g. a per-worker bind
	// failure; empty on a clean run.
	Note string `json:"note,omitempty"`

	Values // run totals, flattened into the same JSON object

	PerWorker []Values `json:"per_worker,omitempty"`
}

// eventDesc is one perf event of a set: its ABI selector plus the
// accumulator field its deltas land in.
type eventDesc struct {
	typ    uint32 // PERF_TYPE_*
	config uint64 // PERF_COUNT_*
	field  int
}

// eventSet is a named group of events; the first entry is the group
// leader.
type eventSet struct {
	name   string
	events []eventDesc
}

// ABI selectors (linux/perf_event.h). They are plain numbers shared
// across architectures, kept here so the stub build can name them too.
const (
	perfTypeHardware = 0
	perfTypeSoftware = 1
	perfTypeHWCache  = 3

	hwCPUCycles    = 0
	hwInstructions = 1
	hwBranchMisses = 5

	// HW cache config: cache id | (op << 8) | (result << 16).
	cacheLLReadAccess = 2 | 0<<8 | 0<<16 // LL, read, access
	cacheLLReadMiss   = 2 | 0<<8 | 1<<16 // LL, read, miss

	swCPUClock    = 0
	swTaskClock   = 1
	swPageFaults  = 2
	swCtxSwitches = 3
)

// hardwareSet is the production group: every figure the memory-bound
// diagnosis needs, read together so the ratios are consistent.
var hardwareSet = &eventSet{name: "hardware", events: []eventDesc{
	{perfTypeHardware, hwCPUCycles, fCycles},
	{perfTypeHardware, hwInstructions, fInstructions},
	{perfTypeHWCache, cacheLLReadAccess, fLLCLoads},
	{perfTypeHWCache, cacheLLReadMiss, fLLCMisses},
	{perfTypeHardware, hwBranchMisses, fBranchMisses},
	{perfTypeSoftware, swTaskClock, fTaskClock},
}}

// softwareSet is the PMU-less fallback: kernel software clocks and
// fault counts, available even inside VMs and containers that expose no
// PMU. It backs the test suite's coverage of the group-read path; the
// benchmark-facing layer never silently degrades to it — a PMU-less
// host reports "counters: unavailable" instead.
var softwareSet = &eventSet{name: "software", events: []eventDesc{
	{perfTypeSoftware, swTaskClock, fTaskClock},
	{perfTypeSoftware, swCPUClock, fCPUClock},
	{perfTypeSoftware, swPageFaults, fPageFaults},
	{perfTypeSoftware, swCtxSwitches, fCtxSwitches},
}}

// maxGroupWords bounds the group read buffer: nr + time_enabled +
// time_running + one value per event.
const maxGroupWords = 3 + 6

// wslot is one worker's delta accumulators, padded to its own cache
// lines so concurrent workers never false-share (the probe slot trick).
// vals[k] accumulates the set's k-th event; vals[nFields] and
// vals[nFields+1] hold the enabled/running time deltas.
type wslot struct {
	vals [nFields + 2]atomic.Uint64
	_    [40]byte // pad the 11 8-byte atomics (88B) to 128B
}

// Sampler accumulates per-worker counter deltas for one team. Slot 0
// belongs to the master and is bound by the run driver
// (npbgo.RunContext); slots 1..n-1 are bound by the team's worker
// goroutines when the sampler rides on the team's probe. All
// sampling methods are safe for concurrent use from every worker; a nil
// *Sampler is the disabled state and is checked by the instrumented
// code, not passed in.
type Sampler struct {
	set    *eventSet
	slots  []wslot
	groups []group // per-OS thread-bound perf fds + hoisted read buffers

	noteMu sync.Mutex
	note   string
}

// Workers returns the worker count the sampler was sized for.
func (s *Sampler) Workers() int { return len(s.slots) }

// setNote records the first non-fatal degradation of the run.
func (s *Sampler) setNote(n string) {
	s.noteMu.Lock()
	if s.note == "" {
		s.note = n
	}
	s.noteMu.Unlock()
}

// Snapshot captures the sampler's accumulated counters: per-worker
// values and their totals. It allocates and is meant for run
// boundaries, not the region hot path.
func (s *Sampler) Snapshot() *Stats {
	st := &Stats{
		Set:       s.set.name,
		Workers:   len(s.slots),
		PerWorker: make([]Values, len(s.slots)),
	}
	s.noteMu.Lock()
	st.Note = s.note
	s.noteMu.Unlock()
	for id := range s.slots {
		w := &st.PerWorker[id]
		for k, ev := range s.set.events {
			w.add(ev.field, s.slots[id].vals[k].Load())
		}
		w.TimeEnabledNs = s.slots[id].vals[nFields].Load()
		w.TimeRunningNs = s.slots[id].vals[nFields+1].Load()

		st.Cycles += w.Cycles
		st.Instructions += w.Instructions
		st.LLCLoads += w.LLCLoads
		st.LLCMisses += w.LLCMisses
		st.BranchMisses += w.BranchMisses
		st.TaskClockNs += w.TaskClockNs
		st.CPUClockNs += w.CPUClockNs
		st.PageFaults += w.PageFaults
		st.CtxSwitches += w.CtxSwitches
		st.TimeEnabledNs += w.TimeEnabledNs
		st.TimeRunningNs += w.TimeRunningNs
	}
	return st
}

// String renders a one-look summary of the snapshot.
func (s *Stats) String() string {
	if s.Set == "software" {
		return fmt.Sprintf("set=software task_clock=%.3fs cpu_clock=%.3fs faults=%d ctxsw=%d",
			float64(s.TaskClockNs)/1e9, float64(s.CPUClockNs)/1e9, s.PageFaults, s.CtxSwitches)
	}
	return fmt.Sprintf("set=%s cycles=%d instr=%d ipc=%.2f llc_loads=%d llc_misses=%d miss_rate=%.4f branch_misses=%d scale=%.2f",
		s.Set, s.Cycles, s.Instructions, s.IPC(), s.LLCLoads, s.LLCMisses, s.LLCMissRate(), s.BranchMisses, s.Scale())
}
