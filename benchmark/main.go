// Command benchmark is the repository's benchmark: it drives the NPB
// suite the way a user does — npbgo.RunContext per cell, one process,
// cells one after another, never more than two threads — and prints
// every metric named in BENCHMARK.json. See README.md.
//
//	go run . -workload <name|all> [-seed N] [-seconds S] [-trace 0|1 | -layers] [-json out.jsonl]
//	go run . -agree a.jsonl b.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// deadline bounds one workload so a hung cell fails the run instead of
// outliving the driver's 180 s limit; cells that poll their context stop
// there, the others finish their current sample first.
const deadline = 150 * time.Second

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a -json file: a result with the settings that
// produced it, which is what -agree compares.
type record struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"seconds"`
	Layers         bool    `json:"layers"`
	Oversubscribed bool    `json:"oversubscribed"`
	Result         result  `json:"result"`
}

// options are the settings of one run.
type options struct {
	seed       int64
	seconds    float64
	layers     bool
	probeScale float64 // 1 except in tests
	traceDir   string  // where a layer pass writes <workload>.trace.json
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\": "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "shuffles the order of cells inside each pass")
	seconds := fs.Float64("seconds", nominalSeconds, "nominal run length; scales every cell's sample count")
	trace := fs.Int("trace", 0, "1 adds the layer pass and reports the per-layer metrics instead of the end-to-end ones")
	layers := fs.Bool("layers", false, "same as -trace 1")
	jsonOut := fs.String("json", "", "append one record per workload to this file, for -agree")
	agree := fs.Bool("agree", false, "compare the two record files given as arguments and exit 1 past a bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *agree {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -agree needs two record files")
			return 2
		}
		return agreeFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := findWorkload(*name); ok {
		todo = []workload{w}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all, %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want -seconds > 0, -trace 0 or 1, and no further arguments")
		return 2
	}
	opt := options{seed: *seed, seconds: *seconds, layers: *layers || *trace == 1, probeScale: 1, traceDir: "out"}

	fmt.Fprintf(stdout, "host: %d cpus, GOMAXPROCS %d, L2 %s, L3 %s (shared with other tenants), %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cacheSize(2), cacheSize(3), runtime.Version())
	if oversubscribed() {
		fmt.Fprintln(stderr, "benchmark: warning: GOMAXPROCS < 2, so two-thread cells are time-sliced; output is marked oversubscribed")
	}
	code := 0
	for _, w := range todo {
		res, err := runWorkload(context.Background(), w, opt, stdout)
		if err == nil && *jsonOut != "" {
			err = appendRecord(*jsonOut, record{w.Name, opt.seed, opt.seconds, opt.layers, oversubscribed(), res})
		}
		var line []byte
		if err == nil {
			line, err = json.Marshal(res)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runWorkload measures one workload, prints its table and metrics to
// out, and returns the result object. Without opt.layers the metrics
// are the end-to-end ones, with it the per-layer ones.
func runWorkload(ctx context.Context, w workload, opt options, out io.Writer) (result, error) {
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	var sp *spans
	if opt.layers {
		sp = newSpans()
	}
	root := sp.begin(w.Name, "workload", -1)
	pr := samplePlain(ctx, w, opt.seconds, opt.seed, sp, root)
	tl := pr.tally
	e2e := endToEndValues(pr)

	fmt.Fprintf(out, "\nworkload %s  seed %d  oversubscribed %v\n", w.Name, opt.seed, oversubscribed())
	fmt.Fprintf(out, "  %-22s %4s %10s %10s %10s %10s\n", "cell", "k", "best s", "median s", "Mop/s", "setup s")
	for _, r := range pr.runs {
		var timed []float64
		for _, s := range r.samples {
			if s.ok {
				timed = append(timed, s.timed)
			}
		}
		b, _ := r.best(0)
		fmt.Fprintf(out, "  %-22s %4d %10.4f %10.4f %10.1f %10.4f\n",
			r.cell, len(r.samples), b.timed, median(timed), b.mops, r.minUntimed())
	}
	fmt.Fprintf(out, "  verify_fail_ratio %d/%d   wall %.1f s   host.calib_drift %.3f\n",
		tl.failed, tl.attempted, pr.wall, pr.calibDrift())

	values, decls := e2e, endToEnd
	if opt.layers {
		layer, ltl := layerPass(ctx, w, pr, opt.probeScale, sp, root)
		tl.attempted += ltl.attempted
		tl.failed += ltl.failed
		for k, v := range runtimeMetrics(pr) {
			layer[k] = v
		}
		values, decls = layer, perLayer
		// The end-to-end numbers of this run are shown for orientation;
		// they are reported only by a run without the layer pass.
		printMetrics(out, e2e, endToEnd)
	}
	sp.end(root)
	printMetrics(out, values, decls)

	res := result{Correct: tl.failed == 0, Attempted: tl.attempted, Failed: tl.failed, Metrics: map[string]metricValue{}}
	for _, d := range decls {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// Only a run with failed samples may lack a number; it
			// reports zero there and is marked incorrect.
			if tl.failed == 0 {
				return res, fmt.Errorf("workload %s: metric %s was not measured", w.Name, d.Name)
			}
			v = 0
		}
		res.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("workload %s: metric %s is measured but not declared", w.Name, name)
		}
	}
	if opt.layers {
		path := filepath.Join(opt.traceDir, w.Name+".trace.json")
		if err := writeTrace(path, sp); err != nil {
			return res, err
		}
		fmt.Fprintf(out, "  spans: %s\n", path)
	}
	return res, nil
}

func printMetrics(out io.Writer, values map[string]float64, decls []metricDecl) {
	for _, d := range decls {
		if v, ok := values[d.Name]; ok {
			line := fmt.Sprintf("  %-30s %14.6g %-6s", d.Name, v, d.Unit)
			if d.Moves != "" {
				line += " -> " + d.Moves
			}
			fmt.Fprintln(out, line)
		}
	}
}

func writeTrace(path string, sp *spans) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sp.writeChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
