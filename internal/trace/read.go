// Reading a trace back: Read runs the toolchain's `go tool trace
// -d=parsed`, as internal/profile runs `go tool pprof -top`, and
// Validate reads the annotation lines of its dump.
package trace

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Track is one annotating goroutine's timeline.
type Track struct {
	G      int64          // the goroutine
	Worker int            // the id it logged under Worker; -1 if none
	Events int            // annotations on it
	Spans  map[string]int // closed spans by name: regions and log pairs
	Marks  map[string]int // instants by category
	Busy   time.Duration  // inside Block
	Wait   time.Duration  // inside Barrier and Pipeline
}

// File is what Validate finds in one trace.
type File struct {
	Tasks  map[uint64]string // the tasks begun in the trace, by id
	Tracks []Track           // workers by id, then other goroutines by id
	Events int               // task, region and log events
}

// Read runs `go tool trace -d=parsed` on the trace file at path (so
// `go` must be on PATH) and validates its output. A file the tool
// cannot parse is an error carrying the tool's reason.
func Read(path string) (*File, error) {
	out, err := exec.Command("go", "tool", "trace", "-d=parsed", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(bytes.TrimSpace(ee.Stderr)) > 0 {
			err = errors.New(strings.SplitN(string(bytes.TrimSpace(ee.Stderr)), "\n", 2)[0])
		}
		return nil, fmt.Errorf("go tool trace: %w", err)
	}
	return Validate(out)
}

// event is one annotation line of a dump.
type event struct {
	kind       string // TaskBegin, TaskEnd, RegionBegin, RegionEnd or Log
	g, time    int64
	task       uint64 // the task it belongs to; a task event's own ID
	name, text string // task or region type, or log category; log message
}

// Validate checks the annotations of a `go tool trace -d=parsed` dump:
// on each goroutine, times never go backwards and spans (regions, and
// Begin/End log pairs) close in the reverse order they opened, by
// name; and every annotation belongs to a task begun in the trace. Of
// several goroutines left with open spans it names the lowest, so the
// same bytes always give the same error.
func Validate(dump []byte) (*File, error) {
	type open struct {
		name string
		at   int64
	}
	type goroutine struct {
		tr    *Track
		stack []open
		last  int64
	}
	f := &File{Tasks: map[uint64]string{}}
	gs := map[int64]*goroutine{}
	for n, line := range strings.Split(string(dump), "\n") {
		if !strings.HasPrefix(line, "M=") {
			continue
		}
		e, err := parse(line)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", n+1, err)
		}
		if e.kind == "" {
			continue
		}
		f.Events++
		g := gs[e.g]
		if g == nil {
			g = &goroutine{tr: &Track{G: e.g, Worker: -1, Spans: map[string]int{}, Marks: map[string]int{}}, last: e.time}
			gs[e.g] = g
		}
		if e.time < g.last {
			return nil, fmt.Errorf("trace: line %d: goroutine %d: time %d before %d, going backwards", n+1, e.g, e.time, g.last)
		}
		g.last = e.time
		g.tr.Events++
		if e.kind == "TaskBegin" {
			f.Tasks[e.task] = e.name
		}
		if _, ok := f.Tasks[e.task]; !ok {
			return nil, fmt.Errorf("trace: line %d: %s %q outside any task begun in the trace (task %d)", n+1, e.kind, e.name, e.task)
		}
		switch {
		case e.kind == "TaskBegin" || e.kind == "TaskEnd":
		case e.kind == "RegionBegin" || e.kind == "Log" && e.text == Begin:
			g.stack = append(g.stack, open{e.name, e.time})
		case e.kind == "RegionEnd" || e.kind == "Log" && e.text == End:
			if len(g.stack) == 0 {
				return nil, fmt.Errorf("trace: line %d: goroutine %d: end of %q with no open span", n+1, e.g, e.name)
			}
			top := g.stack[len(g.stack)-1]
			if top.name != e.name {
				return nil, fmt.Errorf("trace: line %d: goroutine %d: end of %q closes open span %q, spans cross", n+1, e.g, e.name, top.name)
			}
			g.stack = g.stack[:len(g.stack)-1]
			g.tr.Spans[e.name]++
			switch e.name {
			case Block:
				g.tr.Busy += time.Duration(e.time - top.at)
			case Barrier, Pipeline:
				g.tr.Wait += time.Duration(e.time - top.at)
			}
		default:
			g.tr.Marks[e.name]++
			if e.name == Worker {
				g.tr.Worker, _ = strconv.Atoi(e.text)
			}
		}
	}
	if f.Events == 0 {
		return nil, fmt.Errorf("trace: no annotations")
	}
	for _, g := range gs {
		f.Tracks = append(f.Tracks, *g.tr)
	}
	key := func(t Track) int64 { // workers first
		return cmp.Or(int64(t.Worker+1), 1<<62)
	}
	slices.SortFunc(f.Tracks, func(a, b Track) int { return cmp.Or(cmp.Compare(key(a), key(b)), cmp.Compare(a.G, b.G)) })
	for _, id := range sortedKeys(gs) {
		if st := gs[id].stack; len(st) > 0 {
			return nil, fmt.Errorf("trace: goroutine %d: %d span(s) never closed (innermost %q)", id, len(st), st[len(st)-1].name)
		}
	}
	return f, nil
}

// sortedKeys returns m's keys in increasing order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// parse reads one event line as go1.24's `go tool trace -d=parsed`
// prints it (internal/trace's Event.String): "M=.. P=.. G=<g> <Kind>
// Time=<ns>", then the kind's fields, strings Go-quoted. Lines of the
// kinds Validate does not read come back with kind "".
func parse(line string) (e event, err error) {
	f := strings.SplitN(line, " ", 5)
	if len(f) < 4 {
		return e, nil
	}
	e.kind = f[3]
	format, args := " Time=%d Task=%d Type=%q", []any{&e.g, &e.time, &e.task, &e.name}
	switch e.kind {
	case "TaskBegin", "TaskEnd":
		format, args = " Time=%d ID=%d Parent=%d Type=%q", []any{&e.g, &e.time, &e.task, new(uint64), &e.name}
	case "RegionBegin", "RegionEnd":
	case "Log":
		format, args = " Time=%d Task=%d Category=%q Message=%q", append(args, &e.text)
	default:
		return event{}, nil
	}
	if _, err = fmt.Sscanf(f[2]+" "+strings.Join(f[4:], ""), "G=%d"+format, args...); err == nil && e.g < 0 {
		err = errors.New("off any goroutine")
	}
	if err != nil {
		return e, fmt.Errorf("malformed %s %q: %v", e.kind, line, err)
	}
	return e, nil
}

// String renders the file as a per-track table: each track's
// annotations, its busy and wait time, and its panics.
func (f *File) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d annotations, tasks", f.Events)
	for _, id := range sortedKeys(f.Tasks) {
		fmt.Fprintf(&b, " %s", f.Tasks[id])
	}
	for _, tr := range f.Tracks {
		name := "goroutine"
		if tr.Worker >= 0 {
			name = fmt.Sprintf("worker %d", tr.Worker)
		}
		fmt.Fprintf(&b, "\n  %-10s G%-6d events=%-6d busy=%-10v wait=%-10v panics=%d",
			name, tr.G, tr.Events, tr.Busy.Round(time.Microsecond), tr.Wait.Round(time.Microsecond), tr.Marks[Panic])
	}
	return b.String()
}
