package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"npbgo"
)

// benchmarkJSON mirrors ../BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and the runner's tables must say the same thing, name
// for name: the driver reads the file, the runner emits from the tables.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds = %v, runner's nominalSeconds = %v", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, runner has %d", len(bj.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, runner has %q / %q", i, got, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		codes := map[npbgo.Benchmark]bool{}
		for _, c := range w.Cells {
			if codes[c.Bench] {
				t.Errorf("workload %s lists %s twice; per-code metrics assume once", w.Name, c.Bench)
			}
			codes[c.Bench] = true
			if c.Schedule != w.schedule() {
				t.Errorf("workload %s mixes schedules", w.Name)
			}
			if c.Threads > 2 {
				t.Errorf("workload %s: %v uses more than two threads", w.Name, c)
			}
			if iterations[c.Bench][c.Class] == 0 {
				t.Errorf("no iteration count for %v", c)
			}
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, runner has %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, d := range endToEnd {
		unique(d.Name)
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, runner has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit, direction or bound: %+v", d.Name, d)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, runner has %d", len(bj.PerLayer), len(perLayer))
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		if got := bj.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, runner has %+v", i, got, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Moves == "" {
			t.Errorf("per-layer %s: bad unit or direction, or no predicted end-to-end metric: %+v", d.Name, d)
		}
	}
}

// smoke is a one-pass class-S workload over all eight codes.
var smoke = workload{Name: "smoke", Why: "test", Cells: cells('S', 2, "static", 1, npbgo.Benchmarks()...)}

func smokeOptions(t *testing.T, layers bool) options {
	return options{seed: 7, seconds: nominalSeconds, layers: layers, probeScale: 0.01, traceDir: t.TempDir()}
}

func checkMetrics(t *testing.T, res result, decls []metricDecl) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < len(smoke.Cells) {
		t.Errorf("correct %v, attempted %d, failed %d; want every sample verified", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(decls) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(decls))
	}
	for _, d := range decls {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("declared metric %s not emitted", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("metric %s emitted in %q, declared in %q", d.Name, m.Unit, d.Unit)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	res, err := runWorkload(context.Background(), smoke, smokeOptions(t, false), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, endToEnd)
	for name, m := range res.Metrics {
		if !(m.Value > 0) {
			t.Errorf("end-to-end metric %s = %v, must be positive", name, m.Value)
		}
	}
}

func TestSmokeLayers(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer pass takes several seconds")
	}
	opt := smokeOptions(t, true)
	// Two codes short, so that the fill-in path runs too.
	w := workload{Name: "smoke", Why: "test", Cells: smoke.Cells[:6]}
	res, err := runWorkload(context.Background(), w, opt, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, perLayer)
	for _, name := range []string{"obs.tax_ratio", "trace.tax_ratio", "team.regions", "ep_s", "mg.t1_s", "team.forkjoin_ns"} {
		if !(res.Metrics[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join(opt.traceDir, "smoke.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("span file is not JSON: %v", err)
	}
	if len(tr.TraceEvents) < 3*res.Attempted {
		t.Errorf("%d spans for %d samples; want a sample, gc and run span each", len(tr.TraceEvents), res.Attempted)
	}
	for i, e := range tr.TraceEvents {
		if e.Ph != "X" || e.Args.ID != i || e.Args.Parent >= i || e.Dur < 0 {
			t.Fatalf("span %d malformed: %+v", i, e)
		}
	}
	if tr.TraceEvents[0].Name != "smoke" || tr.TraceEvents[0].Args.Parent != -1 {
		t.Errorf("first span = %+v, want the workload root", tr.TraceEvents[0])
	}
}

// A cell that cannot run is counted as attempted and failed, the result
// says so, and the command exits non-zero.
func TestBadCellFailsTheRun(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(append([]workload(nil), workloads...), workload{
		Name: "bad", Why: "test",
		Cells: []cell{{npbgo.IS, 'S', 2, "static", 1}, {npbgo.CG, 'Z', 2, "static", 1}},
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "bad"}, &stdout, &stderr); code != 1 {
		t.Errorf("exit code %d, want 1; stderr: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Correct || res.Attempted != 2 || res.Failed != 1 {
		t.Errorf("correct %v, attempted %d, failed %d; want false, 2, 1", res.Correct, res.Attempted, res.Failed)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{}, {"-workload", "nope"}, {"-workload", "small-S-t2", "-trace", "2"},
		{"-workload", "small-S-t2", "-seconds", "0"}, {"-agree", "only-one.jsonl"}, {"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed to stdout: %s", args, stdout.String())
		}
	}
}

func TestAgree(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, solves ...float64) string {
		path := filepath.Join(dir, name)
		for i, s := range solves {
			rec := record{Workload: "small-S-t2", Seed: int64(i), Seconds: nominalSeconds, Result: result{
				Correct: true, Attempted: 1, Metrics: map[string]metricValue{
					"solve_s": {s, "s"}, "mops_geomean": {1000 / s, "Mop/s"}, "setup_s": {0.05, "s"},
				}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.jsonl", 1.00, 1.01, 0.99, 1.02, 1.00)
	same := write("b.jsonl", 1.03, 1.00, 1.01, 1.02, 1.04)
	slow := write("c.jsonl", 1.40, 1.41, 1.39, 1.42, 1.40)
	noisy := write("d.jsonl", 0.70, 1.00, 1.45, 0.80, 1.20)
	for _, c := range []struct {
		a, b string
		code int
		want string
	}{
		{base, same, 0, ""},
		{base, slow, 1, "DISAGREE"},
		{base, noisy, 1, "NOISY"},
		{base, filepath.Join(dir, "missing.jsonl"), 2, ""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-agree", c.a, c.b}, &stdout, &stderr); code != c.code {
			t.Errorf("-agree %s %s = %d, want %d\n%s%s", filepath.Base(c.a), filepath.Base(c.b), code, c.code, stdout.String(), stderr.String())
		}
		if c.want != "" && !strings.Contains(stdout.String(), c.want) {
			t.Errorf("-agree %s %s: output lacks %q:\n%s", filepath.Base(c.a), filepath.Base(c.b), c.want, stdout.String())
		}
	}
}

// The benchmark may use only the API listed here, so that refactors of
// the packages it measures never have to edit it (and cannot quietly
// change what it measures). Method calls are checked by name: the
// legacy loop API and every kernel option but WithSchedule are out.
func TestAPISurface(t *testing.T) {
	allowed := map[string]map[string]bool{
		"npbgo": set("RunContext", "Config", "Result", "Benchmark", "Benchmarks",
			"BT", "SP", "LU", "FT", "MG", "CG", "IS", "EP"),
		"npbgo/internal/team":   set("New", "WithSchedule", "Schedule", "Dynamic", "Guided", "Stealing"),
		"npbgo/internal/grid":   set("Dim3", "Alloc3"),
		"npbgo/internal/randdp": set("Randlc", "Vranlc", "A", "DefaultSeed"),
		"npbgo/internal/timer":  set("NewSet"),
		"npbgo/internal/nscore": set("NewField", "SetConstants"),
		"npbgo/internal/ops":    set("NewWorkload", "DefaultDim"),
	}
	banned := set("For", "ForBlock", "ReduceSum", "WithObs", "WithTrace", "WithCounters",
		"WithContext", "WithTimers", "WithRecorder", "WithTracer", "WithGrain", "WithWarmup", "WithBuckets")
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			local := map[string]string{} // identifier in this file -> import path
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if first, _, _ := strings.Cut(path, "/"); !strings.Contains(first, ".") && first != "npbgo" {
					continue // standard library
				}
				if allowed[path] == nil {
					t.Errorf("%s imports %s, which the benchmark may not use", fset.Position(imp.Pos()), path)
					continue
				}
				name := path[strings.LastIndex(path, "/")+1:]
				if imp.Name != nil {
					name = imp.Name.Name
				}
				local[name] = path
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if banned[sel.Sel.Name] {
					t.Errorf("%s uses %s, which is not part of the benchmark's API surface", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Obj == nil {
					if path := local[id.Name]; path != "" && !allowed[path][sel.Sel.Name] {
						t.Errorf("%s uses %s.%s, which is not part of the benchmark's API surface", fset.Position(sel.Pos()), id.Name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

func set(names ...string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}
