// Chrome/Perfetto trace-event-format export and the plain-text
// timeline summary.
//
// The JSON exporter emits the classic trace-event format — an object
// with a "traceEvents" array of B/E duration slices, "i" instants and
// s/f flow events — which both chrome://tracing and ui.perfetto.dev
// open directly. One timeline track is produced per worker plus a
// master track (regions, phases, reductions) and a runtime track
// (asynchronous cancellation); barrier trips are linked with flow
// arrows from the last arriver — the worker that tripped the barrier —
// to every released waiter, so a stall chain reads straight off the UI.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// chromeEvent is one trace-event-format record. ts is in microseconds
// (fractional), per the format spec.
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const chromePID = 1

func workerName(id int) string { return fmt.Sprintf("worker %d", id) }

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// spanName returns the slice label for a begin event.
func spanName(e Event) string {
	if e.Kind == KindPhaseBegin || e.Kind == KindPhaseEnd {
		return e.Name
	}
	return e.Kind.String()
}

// argsFor attaches the correlation id under a kind-appropriate key.
func argsFor(e Event) map[string]any {
	switch e.Kind {
	case KindRegionBegin, KindBlockBegin:
		return map[string]any{"seq": e.ID}
	case KindBarrierArrive:
		return map[string]any{"gen": e.ID}
	case KindPipeWaitBegin, KindPipeSignal:
		return map[string]any{"token": e.ID}
	case KindChunk:
		return map[string]any{"chunk": e.ID}
	case KindSteal:
		return map[string]any{"victim": e.ID}
	case KindRetune:
		if e.Name != "" {
			return map[string]any{"schedule": e.Name}
		}
	case KindCancel:
		if e.Name != "" {
			return map[string]any{"reason": e.Name}
		}
	}
	return nil
}

// isBegin/isEnd classify the span-opening and span-closing kinds.
func isBegin(k Kind) bool {
	switch k {
	case KindRegionBegin, KindBlockBegin, KindBarrierArrive, KindPipeWaitBegin, KindPhaseBegin:
		return true
	}
	return false
}

func isEnd(k Kind) bool {
	switch k {
	case KindRegionEnd, KindBlockEnd, KindBarrierRelease, KindPipeWaitEnd, KindPhaseEnd:
		return true
	}
	return false
}

// WriteChrome writes the snapshot as Chrome/Perfetto trace-event JSON.
// label names the process in the UI (typically "BENCH.C.tN").
//
// Tracks with drops are truncated prefixes; their spans still open at
// truncation are closed synthetically at the track's last timestamp
// (marked args.truncated) so the file stays loadable and validatable.
// On a track without drops an unpaired span is a real instrumentation
// bug, and Validate will report it.
func (s *Snapshot) WriteChrome(w io.Writer, label string) error {
	var evs []chromeEvent
	if label == "" {
		label = "npbgo"
	}
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", PID: chromePID,
		Args: map[string]any{"name": label},
	})

	for tid, tr := range s.Tracks {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", PID: chromePID, TID: tid,
			Args: map[string]any{"name": tr.Name},
		})
		evs = append(evs, trackEvents(tid, tr)...)
	}
	evs = append(evs, s.barrierFlows()...)

	if _, err := io.WriteString(w, `{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	for i, e := range evs {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		buf, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// trackEvents converts one track's events, closing truncated spans.
func trackEvents(tid int, tr Track) []chromeEvent {
	var out []chromeEvent
	type open struct{ name string }
	var stack []open
	var lastTS int64
	for _, e := range tr.Events {
		lastTS = e.TS
		switch {
		case isBegin(e.Kind):
			stack = append(stack, open{spanName(e)})
			out = append(out, chromeEvent{
				Name: spanName(e), Cat: e.Kind.String(), Ph: "B",
				TS: usec(e.TS), PID: chromePID, TID: tid, Args: argsFor(e),
			})
		case isEnd(e.Kind):
			if len(stack) > 0 {
				stack = stack[:len(stack)-1]
			}
			out = append(out, chromeEvent{
				Name: spanName(e), Cat: e.Kind.String(), Ph: "E",
				TS: usec(e.TS), PID: chromePID, TID: tid,
			})
		default:
			out = append(out, chromeEvent{
				Name: e.Kind.String(), Cat: e.Kind.String(), Ph: "i", S: "t",
				TS: usec(e.TS), PID: chromePID, TID: tid, Args: argsFor(e),
			})
		}
	}
	// A truncated track (ring filled mid-span) closes its open spans at
	// the last recorded instant, innermost first.
	if tr.Drops > 0 {
		for i := len(stack) - 1; i >= 0; i-- {
			out = append(out, chromeEvent{
				Name: stack[i].name, Ph: "E", TS: usec(lastTS),
				PID: chromePID, TID: tid,
				Args: map[string]any{"truncated": true},
			})
		}
	}
	return out
}

// barrierFlows links each barrier trip: a flow start at the last
// arriver (the worker whose arrival tripped the barrier) and a flow
// finish at every other released worker.
func (s *Snapshot) barrierFlows() []chromeEvent {
	type point struct {
		tid int
		ts  int64
	}
	arrives := map[uint64][]point{}
	releases := map[uint64][]point{}
	for tid := 0; tid < s.Workers; tid++ {
		for _, e := range s.Tracks[tid].Events {
			switch e.Kind {
			case KindBarrierArrive:
				arrives[e.ID] = append(arrives[e.ID], point{tid, e.TS})
			case KindBarrierRelease:
				releases[e.ID] = append(releases[e.ID], point{tid, e.TS})
			}
		}
	}
	gens := make([]uint64, 0, len(arrives))
	for gen := range arrives {
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })

	var out []chromeEvent
	for _, gen := range gens {
		arr := arrives[gen]
		tripper := arr[0]
		for _, p := range arr[1:] {
			if p.ts > tripper.ts {
				tripper = p
			}
		}
		var fins []point
		for _, p := range releases[gen] {
			if p.tid != tripper.tid {
				fins = append(fins, p)
			}
		}
		// A trip with no cross-worker release — a single-worker barrier,
		// or the releases lost to ring truncation — gets no arrow; a
		// flow start with no finish would fail validation.
		if len(fins) == 0 {
			continue
		}
		id := fmt.Sprintf("%d", gen)
		out = append(out, chromeEvent{
			Name: "barrier", Cat: "barrier", Ph: "s", ID: id,
			TS: usec(tripper.ts), PID: chromePID, TID: tripper.tid,
		})
		for _, p := range fins {
			out = append(out, chromeEvent{
				Name: "barrier", Cat: "barrier", Ph: "f", BP: "e", ID: id,
				TS: usec(p.ts), PID: chromePID, TID: p.tid,
			})
		}
	}
	return out
}

// trackStats aggregates one track's timeline for the text summary.
type trackStats struct {
	events           int
	spans            int
	work, wait, pipe time.Duration
	panics           int
}

func statsOf(tr Track) trackStats {
	var st trackStats
	st.events = len(tr.Events)
	type open struct {
		kind Kind
		ts   int64
	}
	var stack []open
	for _, e := range tr.Events {
		switch {
		case isBegin(e.Kind):
			stack = append(stack, open{e.Kind, e.TS})
		case isEnd(e.Kind):
			if len(stack) == 0 {
				continue
			}
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			st.spans++
			d := time.Duration(e.TS - top.ts)
			switch top.kind {
			case KindBlockBegin, KindRegionBegin:
				st.work += d
			case KindBarrierArrive:
				st.wait += d
			case KindPipeWaitBegin:
				st.pipe += d
			}
		case e.Kind == KindPanic:
			st.panics++
		}
	}
	return st
}

// Summary renders the plain-text timeline digest: per track, the event
// and span counts, the time split between computing and the two wait
// states, and the drop count — the one-glance version of the Perfetto
// view, printable at the end of a sweep cell.
func (s *Snapshot) Summary() string {
	var b strings.Builder
	first, last := s.bounds()
	fmt.Fprintf(&b, "trace: %d workers, %d events, %d dropped, span %.3fs",
		s.Workers, s.Events(), s.Drops(), time.Duration(last-first).Seconds())
	for _, tr := range s.Tracks {
		st := statsOf(tr)
		if st.events == 0 && tr.Drops == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n  %-9s events=%-6d spans=%-5d work=%.3fs barrier=%.3fs pipeline=%.3fs",
			tr.Name, st.events, st.spans, st.work.Seconds(), st.wait.Seconds(), st.pipe.Seconds())
		if st.panics > 0 {
			fmt.Fprintf(&b, " panics=%d", st.panics)
		}
		if tr.Drops > 0 {
			fmt.Fprintf(&b, " dropped=%d", tr.Drops)
		}
	}
	return b.String()
}

// bounds returns the first and last recorded timestamps.
func (s *Snapshot) bounds() (first, last int64) {
	set := false
	for _, tr := range s.Tracks {
		for _, e := range tr.Events {
			if !set || e.TS < first {
				first = e.TS
			}
			if !set || e.TS > last {
				last = e.TS
			}
			set = true
		}
	}
	return first, last
}
