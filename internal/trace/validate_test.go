package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// Validate is the contract the exporter, the CI smoke job and npbtrace
// rely on; these cases pin down that it actually rejects each class of
// malformed file.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error
	}{
		{
			"unclosed span",
			`{"traceEvents":[{"ph":"B","ts":1,"pid":1,"tid":0,"name":"work"}]}`,
			"never closed",
		},
		{
			"end without begin",
			`{"traceEvents":[{"ph":"E","ts":1,"pid":1,"tid":0,"name":"work"}]}`,
			"no open span",
		},
		{
			"crossing spans",
			`{"traceEvents":[
				{"ph":"B","ts":1,"pid":1,"tid":0,"name":"a"},
				{"ph":"B","ts":2,"pid":1,"tid":0,"name":"b"},
				{"ph":"E","ts":3,"pid":1,"tid":0,"name":"a"},
				{"ph":"E","ts":4,"pid":1,"tid":0,"name":"b"}]}`,
			"spans cross",
		},
		{
			"non-monotonic track",
			`{"traceEvents":[
				{"ph":"B","ts":5,"pid":1,"tid":0,"name":"a"},
				{"ph":"E","ts":3,"pid":1,"tid":0,"name":"a"}]}`,
			"not monotonic",
		},
		{
			"dangling flow start",
			`{"traceEvents":[
				{"ph":"i","ts":1,"pid":1,"tid":0,"s":"t","name":"x"},
				{"ph":"s","ts":1,"pid":1,"tid":0,"id":"9","name":"barrier"}]}`,
			"never finished",
		},
		{
			"dangling flow finish",
			`{"traceEvents":[
				{"ph":"i","ts":1,"pid":1,"tid":0,"s":"t","name":"x"},
				{"ph":"f","ts":1,"pid":1,"tid":0,"bp":"e","id":"9","name":"barrier"}]}`,
			"never started",
		},
		{
			"flow without id",
			`{"traceEvents":[{"ph":"s","ts":1,"pid":1,"tid":0,"name":"barrier"}]}`,
			"without id",
		},
		{
			"unknown phase",
			`{"traceEvents":[{"ph":"X","ts":1,"pid":1,"tid":0}]}`,
			"unknown phase",
		},
		{
			"empty file",
			`{"traceEvents":[]}`,
			"no events",
		},
		{
			"not json",
			`]`,
			"parsing",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate([]byte(tc.json))
			if err == nil {
				t.Fatalf("validated; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestValidateAcceptsWellFormed(t *testing.T) {
	// An anonymous E ("") may close any span: the truncation closer
	// emits named Es, but viewers accept both, and so does Validate.
	data := `{"displayTimeUnit":"ns","traceEvents":[
		{"ph":"M","pid":1,"ts":0,"tid":0,"name":"thread_name","args":{"name":"worker 0"}},
		{"ph":"B","ts":1,"pid":1,"tid":0,"name":"work"},
		{"ph":"i","ts":2,"pid":1,"tid":0,"s":"t","name":"chunk"},
		{"ph":"E","ts":3,"pid":1,"tid":0,"name":""},
		{"ph":"s","ts":3,"pid":1,"tid":0,"id":"4","name":"barrier"},
		{"ph":"f","ts":4,"pid":1,"tid":1,"bp":"e","id":"4","name":"barrier"}]}`
	info, err := Validate([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	if info.Events != 6 || info.FlowStarts != 1 || info.FlowEnds != 1 {
		t.Fatalf("got events=%d flows=%d/%d, want 6, 1/1", info.Events, info.FlowStarts, info.FlowEnds)
	}
	tk := info.Tracks[0]
	if tk.Name != "worker 0" || tk.Slices != 1 || tk.Instants != 1 {
		t.Fatalf("track info = %+v, want worker 0 with 1 slice, 1 instant", tk)
	}
	if !strings.Contains(info.String(), "worker 0") {
		t.Errorf("String() missing track name:\n%s", info)
	}
}

// Validate's verdict must depend on the bytes alone: with several
// tracks left open, or several flows unmatched, it names the lowest tid
// and the smallest flow id every time, whatever order its maps iterate.
func TestValidateErrorIsDeterministic(t *testing.T) {
	cases := []struct{ name, json, want string }{
		{
			"three unclosed tracks",
			`{"traceEvents":[
				{"ph":"B","ts":1,"pid":1,"tid":2,"name":"c"},
				{"ph":"B","ts":1,"pid":1,"tid":0,"name":"a"},
				{"ph":"B","ts":1,"pid":1,"tid":1,"name":"b"}]}`,
			`trace: tid 0 (): 1 span(s) never closed (innermost "a")`,
		},
		{
			"three unfinished flows",
			`{"traceEvents":[
				{"ph":"s","ts":1,"pid":1,"tid":0,"id":"9","name":"barrier"},
				{"ph":"s","ts":1,"pid":1,"tid":0,"id":"3","name":"barrier"},
				{"ph":"s","ts":1,"pid":1,"tid":0,"id":"5","name":"barrier"}]}`,
			"trace: flow 3 started but never finished",
		},
		{
			"three unstarted flows",
			`{"traceEvents":[
				{"ph":"f","ts":1,"pid":1,"tid":0,"bp":"e","id":"8","name":"barrier"},
				{"ph":"f","ts":1,"pid":1,"tid":0,"bp":"e","id":"6","name":"barrier"},
				{"ph":"f","ts":1,"pid":1,"tid":0,"bp":"e","id":"7","name":"barrier"}]}`,
			"trace: flow 6 finished but never started",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				_, err := Validate([]byte(tc.json))
				if err == nil || err.Error() != tc.want {
					t.Fatalf("call %d: error %v, want %q", i, err, tc.want)
				}
			}
		})
	}
}

// FuzzValidate feeds the validator arbitrary bytes, and plays the same
// bytes into a tracer as a script. Validate must never panic and must
// give the same result twice on the same bytes, and every file
// WriteChrome exports from a played run must validate. The corpus under
// testdata/fuzz holds, among others, an export of a traced IS.S run.
func FuzzValidate(f *testing.F) {
	f.Add([]byte(`{"traceEvents":[{"ph":"B","ts":1,"pid":1,"tid":0,"name":"work"},{"ph":"E","ts":2,"pid":1,"tid":0}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := Validate(data)
		info2, err2 := Validate(data)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("two calls disagree: %v, then %v", err, err2)
		}
		if !reflect.DeepEqual(info, info2) {
			t.Fatalf("two calls disagree:\n%+v\nthen\n%+v", info, info2)
		}

		var buf bytes.Buffer
		if err := play(data).WriteChrome(&buf, "FUZZ"); err != nil {
			t.Fatal(err)
		}
		if _, err := Validate(buf.Bytes()); err != nil {
			t.Fatalf("export of a played run fails validation: %v\n%s", err, buf.Bytes())
		}
	})
}

// play records a two-worker run scripted by script into a tracer whose
// ring capacity is set by the first byte, and returns its snapshot.
// Every later byte is one action: its low two bits pick a track (worker
// 0, worker 1, master, runtime), the next two an action (open a span,
// close the innermost one, post an instant), the high four an id. Spans
// open and close in stack order, as the team emits them, and the ones
// still open at the end are closed; a full ring drops what follows, as
// in a long run.
func play(script []byte) *Snapshot {
	capacity := 1
	if len(script) > 0 {
		capacity += int(script[0] % 64)
		script = script[1:]
	}
	tr := New(2, WithCapacity(capacity))
	var open [3][]Event // the spans open on workers 0 and 1 and the master
	emit := func(track int, e Event) {
		e.TS = tr.now()
		if track == 2 {
			tr.master().emit(e)
		} else {
			tr.ring(track).emit(e)
		}
	}
	closeSpan := func(track int) {
		st := open[track]
		if len(st) == 0 {
			return
		}
		top := st[len(st)-1]
		open[track] = st[:len(st)-1]
		top.Kind++ // each span's end kind follows its begin kind
		emit(track, top)
	}
	for _, b := range script {
		track, action, id := int(b&3), b>>2&3, uint64(b>>4)
		if track == 3 {
			tr.Cancel("deadline")
			continue
		}
		switch action {
		case 0:
			e := Event{ID: id}
			if track == 2 {
				e.Kind = []Kind{KindRegionBegin, KindPhaseBegin}[id%2]
				if e.Kind == KindPhaseBegin {
					e.Name = []string{"sweeps", "t_conj_grad", "rhs"}[id%3]
				}
			} else {
				e.Kind = []Kind{KindBlockBegin, KindBarrierArrive, KindPipeWaitBegin}[id%3]
			}
			open[track] = append(open[track], e)
			emit(track, e)
		case 1:
			closeSpan(track)
		default:
			if track < 2 {
				emit(track, Event{ID: id, Kind: []Kind{KindPipeSignal, KindChunk, KindSteal, KindPanic}[id%4]})
			}
		}
	}
	for track := range open {
		for len(open[track]) > 0 {
			closeSpan(track)
		}
	}
	return tr.Snapshot()
}
