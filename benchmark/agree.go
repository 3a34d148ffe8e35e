package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// readRecords loads a -json file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return recs, nil
}

// runSet is one -json file: per workload, the value of every end-to-end
// metric in each run that measured them, and the failed samples of all
// its runs.
type runSet struct {
	values map[string]map[string][]float64 // workload -> metric -> one value per run
	failed int
}

func loadSet(path string) (runSet, error) {
	recs, err := readRecords(path)
	if err != nil {
		return runSet{}, err
	}
	if len(recs) == 0 {
		return runSet{}, fmt.Errorf("%s: no records", path)
	}
	set := runSet{values: map[string]map[string][]float64{}}
	for _, r := range recs {
		set.failed += r.Result.Failed
		if r.Layers {
			continue
		}
		if set.values[r.Workload] == nil {
			set.values[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			set.values[r.Workload][name] = append(set.values[r.Workload][name], m.Value)
		}
	}
	return set, nil
}

// runs is the number of end-to-end runs of workload w in the set.
func (s runSet) runs(w string) int { return len(s.values[w][endToEnd[0].Name]) }

// agreeFiles compares two sets of runs of the same code. For every
// workload and end-to-end metric it prints both set medians, their
// relative difference, each set's run-to-run spread (interquartile
// distance over median) and the metric's bound. It returns 1 if two
// medians are further apart than the bound, a spread other than
// setup_s's exceeds it, a workload is in only one set, or any run had a
// failed sample.
func agreeFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadSet(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(stdout, "%-20s %-13s %11s %11s %7s %9s %9s %6s\n",
		"workload", "metric", "median a", "median b", "diff", "spread a", "spread b", "bound")
	for _, w := range workloads {
		na, nb := a.runs(w.Name), b.runs(w.Name)
		if na == 0 && nb == 0 {
			continue
		}
		if na == 0 || nb == 0 {
			fmt.Fprintf(stdout, "%-20s in one set only: %d runs in a, %d in b\n", w.Name, na, nb)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			xa, xb := a.values[w.Name][d.Name], b.values[w.Name][d.Name]
			diff := (median(xb) - median(xa)) / median(xa)
			verdict := ""
			if !(math.Abs(diff) <= d.Bound) { // written so that NaN fails too
				verdict = "  DISAGREE"
			}
			// quartiles need two runs; setup_s is judged on medians alone
			if d.Name != "setup_s" && ((na > 1 && spread(xa) > d.Bound) || (nb > 1 && spread(xb) > d.Bound)) {
				verdict += "  NOISY"
			}
			if verdict != "" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-20s %-13s %11.5g %11.5g %+6.1f%% %8.1f%% %8.1f%% %5.0f%%%s\n",
				w.Name, d.Name, median(xa), median(xb), 100*diff, 100*spread(xa), 100*spread(xb), 100*d.Bound, verdict)
		}
		fmt.Fprintf(stdout, "%-20s runs: %d in a, %d in b\n", w.Name, na, nb)
	}
	if a.failed+b.failed > 0 {
		fmt.Fprintf(stdout, "failed samples: %d in a, %d in b\n", a.failed, b.failed)
		code = 1
	}
	return code
}
