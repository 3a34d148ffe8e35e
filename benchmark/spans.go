package main

import (
	"encoding/json"
	"io"
	"time"
)

// spans is the benchmark's own in-memory span recorder: one span around
// every call into a layer, each naming the span that caused it. It is
// written out as Chrome-trace JSON when a layer pass ends. A nil *spans
// records nothing, which is how the end-to-end run stays trace-free.
type spans struct {
	epoch time.Time
	list  []span
}

type span struct {
	name, cat  string
	start, end time.Duration // since epoch
	parent     int           // index of the causing span, -1 for a root
}

func newSpans() *spans { return &spans{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (s *spans) begin(name, cat string, parent int) int {
	if s == nil {
		return -1
	}
	s.list = append(s.list, span{name: name, cat: cat, start: time.Since(s.epoch), parent: parent})
	return len(s.list) - 1
}

func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].end = time.Since(s.epoch)
}

// chromeEvent is one "complete" (ph X) trace event; ts and dur are in
// microseconds as the format requires.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev). All spans sit on one track and
// nest by time; args carry each span's id and its parent's.
func (s *spans) writeChrome(w io.Writer) error {
	events := make([]chromeEvent, len(s.list))
	for i, sp := range s.list {
		events[i] = chromeEvent{
			Name: sp.name, Cat: sp.cat, Ph: "X",
			Ts:  float64(sp.start) / float64(time.Microsecond),
			Dur: float64(sp.end-sp.start) / float64(time.Microsecond),
			Pid: 1, Tid: 1,
			Args: map[string]int{"id": i, "parent": sp.parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"displayTimeUnit": "ms",
		"traceEvents":     events,
	})
}
