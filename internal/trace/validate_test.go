package trace

import (
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// Lines of a `go tool trace -d=parsed` dump, as go1.24 prints them.
func taskLine(g, at int, kind string, id int) string {
	return fmt.Sprintf("M=1 P=0 G=%d %s Time=%d ID=%d Parent=18446744073709551615 Type=%q\n", g, kind, at, id, "T")
}

func regionLine(g, at int, kind, name string) string {
	return fmt.Sprintf("M=1 P=0 G=%d %s Time=%d Task=1 Type=%q\n", g, kind, at, name)
}

func logLine(g, at int, category, message string) string {
	return fmt.Sprintf("M=1 P=0 G=%d Log Time=%d Task=1 Category=%q Message=%q\n", g, at, category, message)
}

// inTask wraps annotation lines in task 1, begun on goroutine 1 at time
// 0 and ended there at time 1000.
func inTask(lines ...string) string {
	return taskLine(1, 0, "TaskBegin", 1) + strings.Join(lines, "") + taskLine(1, 1000, "TaskEnd", 1)
}

// Validate is the contract the trace tests, npbperf trace and the CI
// smoke rely on; these cases pin down that it rejects each class of
// defect.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := []struct{ name, dump, want string }{
		{"unclosed span", inTask(regionLine(1, 1, "RegionBegin", Block)), "never closed"},
		{"end without begin", inTask(logLine(1, 1, Barrier, End)), "no open span"},
		{"crossing spans", inTask(
			regionLine(1, 1, "RegionBegin", "a"),
			logLine(1, 2, "b", Begin),
			regionLine(1, 3, "RegionEnd", "a"),
			logLine(1, 4, "b", End)), "spans cross"},
		{"non-monotonic track", inTask(
			regionLine(2, 5, "RegionBegin", "a"),
			regionLine(2, 3, "RegionEnd", "a")), "going backwards"},
		{"task never begun", taskLine(1, 0, "TaskEnd", 1), "outside any task"},
		{"region outside a task", inTask(strings.Replace(regionLine(1, 1, "RegionBegin", Region), "Task=1", "Task=0", 1)),
			"outside any task"},
		{"malformed number", inTask("M=1 P=0 G=1 Log Time=x Task=1 Category=\"c\" Message=\"\"\n"), "malformed Log"},
		{"number out of range", inTask("M=1 P=0 G=99999999999999999999 Log Time=1 Task=1 Category=\"c\" Message=\"\"\n"), "out of range"},
		{"unterminated string", inTask("M=1 P=0 G=1 Log Time=1 Task=1 Category=\"c\n"), "malformed Log"},
		{"bad escape", inTask("M=1 P=0 G=1 Log Time=1 Task=1 Category=\"\\q\" Message=\"\"\n"), "invalid syntax"},
		{"missing name", inTask("M=1 P=0 G=1 RegionBegin Time=1 Task=1\n"), "malformed RegionBegin"},
		{"annotation off goroutine", inTask(logLine(-1, 1, "c", "")), "malformed Log"},
		{"no attributes", inTask("M=1 P=0 G=1 Log\n"), "malformed Log"},
		{"empty file", "", "no annotations"},
		{"binary trace", "go 1.23 trace\x00\x00\x00\x01", "no annotations"},
		{"no annotations", "M=7 P=0 G=-1 StateTransition Time=1 Resource=Goroutine(1) Reason=\"\" GoID=1 Undetermined->Running\n",
			"no annotations"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Validate([]byte(tc.dump))
			if err == nil {
				t.Fatalf("validated; want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// wellFormed is a dump as go tool trace prints one: scheduler events,
// stacks and annotations interleaved, strings quoted.
var wellFormed = "M=7 P=0 G=-1 StateTransition Time=1 Resource=Goroutine(1) Reason=\"\" GoID=1 Undetermined->Running\n" +
	taskLine(1, 2, "TaskBegin", 1) +
	"Stack=\n\truntime/trace.NewTask @ 0x1\n\t\t/go/src/runtime/trace/annotation.go:80\n\n" +
	logLine(1, 3, Worker, "0") +
	logLine(1, 4, "scale+update", Begin) +
	regionLine(1, 5, "RegionBegin", Region) +
	logLine(2, 5, Worker, "1") +
	regionLine(1, 6, "RegionBegin", Block) +
	regionLine(2, 6, "RegionBegin", Block) +
	logLine(1, 7, Barrier, Begin) +
	logLine(2, 8, Barrier, Begin) +
	logLine(2, 9, Barrier, End) +
	logLine(1, 9, Barrier, End) +
	"M=7 P=0 G=2 RangeBegin Time=9 Name=\"GC mark assist\" Scope=Goroutine(2)\n" +
	logLine(2, 10, Steal, "0") +
	regionLine(2, 12, "RegionEnd", Block) +
	regionLine(1, 14, "RegionEnd", Block) +
	regionLine(1, 15, "RegionEnd", Region) +
	logLine(1, 16, "scale+update", End) +
	logLine(3, 17, Cancel, "context \"deadline\" exceeded") +
	taskLine(1, 18, "TaskEnd", 1)

func TestValidateAcceptsWellFormed(t *testing.T) {
	f, err := Validate([]byte(wellFormed))
	if err != nil {
		t.Fatal(err)
	}
	if f.Events != 18 || !reflect.DeepEqual(f.Tasks, map[uint64]string{1: "T"}) || len(f.Tracks) != 3 {
		t.Fatalf("got %d events, tasks %v, %d tracks; want 18, {1: T}, 3", f.Events, f.Tasks, len(f.Tracks))
	}
	w0, w1, other := f.Tracks[0], f.Tracks[1], f.Tracks[2]
	if w0.Worker != 0 || w0.G != 1 || w0.Busy != 8 || w0.Wait != 2 || w0.Spans["scale+update"] != 1 || w0.Spans[Region] != 1 {
		t.Errorf("worker 0 = %+v, want G1, busy 8, wait 2, one phase and one region", w0)
	}
	if w1.Worker != 1 || w1.G != 2 || w1.Busy != 6 || w1.Wait != 1 || w1.Marks[Steal] != 1 {
		t.Errorf("worker 1 = %+v, want G2, busy 6, wait 1, one steal", w1)
	}
	if other.Worker != -1 || other.G != 3 || other.Marks[Cancel] != 1 {
		t.Errorf("other track = %+v, want G3 with the cancellation", other)
	}
	if s := f.String(); !strings.Contains(s, "worker 1") || !strings.Contains(s, "goroutine  G3") {
		t.Errorf("String() missing a track:\n%s", s)
	}
}

// TestValidateAcceptsRealDump reads the dump of a traced IS.S t2 run
// that seeds the fuzz corpus (go1.24's output, stack lines dropped):
// the reader must accept what the toolchain prints.
func TestValidateAcceptsRealDump(t *testing.T) {
	data, err := os.ReadFile("testdata/fuzz/FuzzValidate/is_s_t2_export")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(data)), "[]byte(")
	dump, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := Validate([]byte(dump))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Tracks) != 2 || f.Tracks[1].Worker != 1 || f.Tracks[1].Spans[Barrier] == 0 ||
		!reflect.DeepEqual(f.Tasks, map[uint64]string{2: "IS.S.t2"}) {
		t.Fatalf("IS.S t2 dump read as:\n%s", f)
	}
}

// Time is checked per goroutine: goroutines interleave in a dump, and
// only one goroutine's clock going back is a defect.
func TestTimestampsMonotonicPerTrack(t *testing.T) {
	interleaved := inTask(
		regionLine(2, 5, "RegionBegin", "a"),
		regionLine(3, 3, "RegionBegin", "b"),
		regionLine(3, 4, "RegionEnd", "b"),
		regionLine(2, 6, "RegionEnd", "a"))
	if _, err := Validate([]byte(interleaved)); err != nil {
		t.Fatalf("interleaved goroutines rejected: %v", err)
	}
	back := inTask(logLine(2, 5, "x", ""), logLine(3, 6, "x", ""), logLine(2, 4, "x", ""))
	if _, err := Validate([]byte(back)); err == nil || !strings.Contains(err.Error(), "goroutine 2: time 4 before 5") {
		t.Fatalf("Validate = %v, want goroutine 2 going backwards", err)
	}
}

// Validate's verdict must depend on the bytes alone: with several
// goroutines left open it names the lowest every time, whatever order
// its maps iterate.
func TestValidateErrorIsDeterministic(t *testing.T) {
	cases := []struct{ name, dump, want string }{
		{
			"three unclosed tracks",
			inTask(regionLine(3, 1, "RegionBegin", "c"), regionLine(1, 1, "RegionBegin", "a"), regionLine(2, 1, "RegionBegin", "b")),
			`trace: goroutine 1: 1 span(s) never closed (innermost "a")`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 200; i++ {
				_, err := Validate([]byte(tc.dump))
				if err == nil || err.Error() != tc.want {
					t.Fatalf("call %d: error %v, want %q", i, err, tc.want)
				}
			}
		})
	}
}

// FuzzValidate feeds the reader arbitrary bytes as a dump, and plays the
// same bytes as a script into a well-formed dump. Validate must never
// panic and must give the same result twice on the same bytes, and it
// must accept every played dump, whatever its names hold, with every
// span counted. The corpus under testdata/fuzz holds, among others, the
// dump of a traced IS.S t2 run.
func FuzzValidate(f *testing.F) {
	f.Add([]byte(wellFormed))
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := Validate(data)
		f2, err2 := Validate(data)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("two calls disagree: %v, then %v", err, err2)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("two calls disagree:\n%+v\nthen\n%+v", f1, f2)
		}

		dump, spans := play(data)
		got, err := Validate([]byte(dump))
		if err != nil {
			t.Fatalf("played dump fails validation: %v\n%s", err, dump)
		}
		n := 0
		for _, tk := range got.Tracks {
			for _, c := range tk.Spans {
				n += c
			}
		}
		if n != spans {
			t.Fatalf("reader counted %d spans, the script closed %d\n%s", n, spans, dump)
		}
	})
}

// play renders script as a dump of one task on goroutines 1 and 2. Each
// byte is one action: its low bit picks the goroutine, the next two an
// action (open a region, open a log pair, close the innermost span, log
// an instant), and the rest pick a name, which may hold quotes, spaces,
// "=", a newline or bytes that are not UTF-8. Spans still open at the
// end are closed. Only the first 64 bytes play, so an execution stays
// cheap enough for the fuzzer to minimize what it finds. It returns the
// dump and the number of spans it closed.
func play(script []byte) (string, int) {
	script = script[:min(len(script), 64)]
	names := []string{Block, "a b", `q"uote`, "k=v", "M=1 G=2", "\xff\xfe", "", "tab\there", "new\nline", `back\slash`, "ü", Begin}
	var b strings.Builder
	b.WriteString(taskLine(1, 0, "TaskBegin", 1))
	type open struct {
		name   string
		region bool
	}
	var stacks [2][]open
	at, spans := 1, 0
	closeSpan := func(g int) {
		st := stacks[g]
		if len(st) == 0 {
			return
		}
		top := st[len(st)-1]
		stacks[g] = st[:len(st)-1]
		if top.region {
			b.WriteString(regionLine(g+1, at, "RegionEnd", top.name))
		} else {
			b.WriteString(logLine(g+1, at, top.name, End))
		}
		spans++
	}
	for _, c := range script {
		g, name := int(c&1), names[int(c>>3)%len(names)]
		switch c >> 1 & 3 {
		case 0:
			stacks[g] = append(stacks[g], open{name, true})
			b.WriteString(regionLine(g+1, at, "RegionBegin", name))
		case 1:
			stacks[g] = append(stacks[g], open{name, false})
			b.WriteString(logLine(g+1, at, name, Begin))
		case 2:
			closeSpan(g)
		case 3:
			b.WriteString(logLine(g+1, at, name, "x"+name))
		}
		at++
	}
	for g := range stacks {
		for len(stacks[g]) > 0 {
			closeSpan(g)
		}
	}
	b.WriteString(taskLine(1, at, "TaskEnd", 1))
	return b.String(), spans
}
