package trace

import (
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
