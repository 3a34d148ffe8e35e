// Validation of exported Chrome/Perfetto trace JSON: the self-check
// behind the trace tests, the CI smoke job and cmd/npbtrace. It parses
// a trace-event file and enforces the invariants the exporter
// guarantees — so a violation means an instrumentation bug (an
// unpaired Begin, a span crossing another) rather than a malformed
// file.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
)

// TrackInfo summarizes one validated track.
type TrackInfo struct {
	TID      int
	Name     string
	Events   int     // slice + instant events (flow events counted globally)
	Slices   int     // completed B/E pairs
	Instants int     // "i" events
	FirstUS  float64 // first event timestamp, microseconds
	LastUS   float64 // last event timestamp, microseconds
}

// FileInfo is the result of a successful validation.
type FileInfo struct {
	Tracks     []TrackInfo // ordered by tid
	FlowStarts int         // barrier flow "s" events
	FlowEnds   int         // barrier flow "f" events
	Events     int         // total events of all phases
}

// Validate parses data as Chrome trace-event JSON and checks, per
// track: that every B has a matching E with the same name (strict
// stack discipline, so spans nest and never cross), and that slice and
// instant timestamps are monotonically non-decreasing in file order.
// Across tracks it checks that every flow start has at least one flow
// finish with the same id and vice versa. It returns per-track
// statistics on success.
func Validate(data []byte) (*FileInfo, error) {
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		return nil, fmt.Errorf("trace: parsing: %w", err)
	}
	if len(file.TraceEvents) == 0 {
		return nil, fmt.Errorf("trace: no events")
	}

	type trackState struct {
		info   TrackInfo
		stack  []string
		lastTS float64
		seen   bool
	}
	tracks := map[int]*trackState{}
	track := func(tid int) *trackState {
		st, ok := tracks[tid]
		if !ok {
			st = &trackState{info: TrackInfo{TID: tid}}
			tracks[tid] = st
		}
		return st
	}

	flowStarts := map[string]int{}
	flowEnds := map[string]int{}
	info := &FileInfo{}

	for i, e := range file.TraceEvents {
		info.Events++
		switch e.Ph {
		case "M": // metadata
			if e.Name == "thread_name" {
				if name, ok := e.Args["name"].(string); ok {
					track(e.TID).info.Name = name
				}
			}
		case "B", "E", "i":
			st := track(e.TID)
			if st.seen && e.TS < st.lastTS {
				return nil, fmt.Errorf("trace: event %d (tid %d %q ph=%s): timestamp %.3f < previous %.3f — not monotonic",
					i, e.TID, e.Name, e.Ph, e.TS, st.lastTS)
			}
			st.lastTS, st.seen = e.TS, true
			if !st.info.seenFirst() {
				st.info.FirstUS = e.TS
			}
			st.info.LastUS = e.TS
			st.info.Events++
			switch e.Ph {
			case "B":
				st.stack = append(st.stack, e.Name)
			case "E":
				if len(st.stack) == 0 {
					return nil, fmt.Errorf("trace: event %d (tid %d): E %q with no open span", i, e.TID, e.Name)
				}
				top := st.stack[len(st.stack)-1]
				if e.Name != "" && e.Name != top {
					return nil, fmt.Errorf("trace: event %d (tid %d): E %q closes open span %q — spans cross", i, e.TID, e.Name, top)
				}
				st.stack = st.stack[:len(st.stack)-1]
				st.info.Slices++
			case "i":
				st.info.Instants++
			}
		case "s":
			if e.ID == "" {
				return nil, fmt.Errorf("trace: event %d: flow start without id", i)
			}
			flowStarts[e.ID]++
			info.FlowStarts++
		case "f":
			if e.ID == "" {
				return nil, fmt.Errorf("trace: event %d: flow finish without id", i)
			}
			flowEnds[e.ID]++
			info.FlowEnds++
		default:
			return nil, fmt.Errorf("trace: event %d: unknown phase %q", i, e.Ph)
		}
	}

	// Report the lowest unclosed tid and the smallest unmatched flow id,
	// so the same bytes always give the same error.
	tids := make([]int, 0, len(tracks))
	for tid := range tracks {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		if st := tracks[tid]; len(st.stack) > 0 {
			return nil, fmt.Errorf("trace: tid %d (%s): %d span(s) never closed (innermost %q)",
				tid, st.info.Name, len(st.stack), st.stack[len(st.stack)-1])
		}
	}
	if id, ok := firstUnmatched(flowStarts, flowEnds); ok {
		return nil, fmt.Errorf("trace: flow %s started but never finished", id)
	}
	if id, ok := firstUnmatched(flowEnds, flowStarts); ok {
		return nil, fmt.Errorf("trace: flow %s finished but never started", id)
	}

	for _, tid := range tids {
		info.Tracks = append(info.Tracks, tracks[tid].info)
	}
	return info, nil
}

// firstUnmatched returns the smallest id, in string order, that has
// events in have but none in want.
func firstUnmatched(have, want map[string]int) (first string, ok bool) {
	for id := range have {
		if want[id] == 0 && (!ok || id < first) {
			first, ok = id, true
		}
	}
	return first, ok
}

// seenFirst reports whether the track has recorded its first event.
func (t *TrackInfo) seenFirst() bool { return t.Events > 0 }

// String renders the validation result as a short per-track table.
func (fi *FileInfo) String() string {
	s := fmt.Sprintf("valid trace: %d events, %d flow links", fi.Events, fi.FlowStarts)
	for _, tr := range fi.Tracks {
		name := tr.Name
		if name == "" {
			name = fmt.Sprintf("tid %d", tr.TID)
		}
		s += fmt.Sprintf("\n  %-9s events=%-6d slices=%-5d instants=%-4d span=%.3fms",
			name, tr.Events, tr.Slices, tr.Instants, (tr.LastUS-tr.FirstUS)/1e3)
	}
	return s
}
