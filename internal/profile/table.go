// Hot-function tables: the flat/cumulative per-function view the
// paper's per-kernel diagnosis needs — "CG spends 61% of its CPU in
// sparseMatVec" is one row of this table. The profile is read by the
// toolchain's own `go tool pprof`, whose -top report is parsed here;
// flat charges a sample to its leaf function, cumulative charges it
// once to every function on its stack.
package profile

import (
	"bytes"
	"cmp"
	"fmt"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// KernelPrefix marks this repository's own code in symbolized function
// names; attribution statistics report how much of a profile lands
// under it. Kernels, the team runtime and the solver cores all live in
// internal/, so a healthy benchmark profile is dominated by it.
const KernelPrefix = "npbgo/internal/"

// FuncStat is one function's row of a hot-function table.
type FuncStat struct {
	Name    string  `json:"name"`
	Flat    int64   `json:"flat"`
	FlatPct float64 `json:"flat_pct"`
	Cum     int64   `json:"cum"`
	CumPct  float64 `json:"cum_pct"`
}

// Table is the hot-function view of one profile dimension.
type Table struct {
	// Type/Unit name the dimension ("cpu"/"nanoseconds",
	// "alloc_space"/"bytes").
	Type string `json:"type"`
	Unit string `json:"unit"`
	// Total is the summed value of every sample.
	Total int64 `json:"total"`
	// AttributedPct is the share of Total whose stack contains at least
	// one symbolized KernelPrefix function — the "how much of this
	// profile do we understand" figure the CI smoke asserts on.
	AttributedPct float64 `json:"attributed_pct"`
	// Funcs is every function observed, ordered by descending flat
	// value, then descending cumulative value, then name.
	Funcs []FuncStat `json:"functions"`
}

// Hot builds the hot-function table of one pprof file: its CPU
// dimension, or its alloc_space dimension when heap is set. It runs
// `go tool pprof -top` twice, once for every function and once focused
// on KernelPrefix for AttributedPct. The focus is anchored, because
// pprof also matches it against file paths. A file pprof cannot read
// (missing, empty, a gzip cut short) is an error carrying pprof's
// reason.
func Hot(path string, heap bool) (*Table, error) {
	args := []string{"tool", "pprof", "-top", "-nodefraction=0", "-unit=ns"}
	unit, suffix := "nanoseconds", "ns"
	if heap {
		args = append(args, "-sample_index=alloc_space")
		unit, suffix = "bytes", "B"
	}
	t, _, err := pprofTop(suffix, append(slices.Clip(args), path)...)
	if err != nil {
		return nil, err
	}
	_, attributed, err := pprofTop(suffix, append(args, "-focus=^"+KernelPrefix, path)...)
	if err != nil {
		return nil, err
	}
	t.Unit = unit
	if t.Total > 0 {
		t.AttributedPct = 100 * float64(attributed) / float64(t.Total)
		for i := range t.Funcs {
			t.Funcs[i].FlatPct = 100 * float64(t.Funcs[i].Flat) / float64(t.Total)
			t.Funcs[i].CumPct = 100 * float64(t.Funcs[i].Cum) / float64(t.Total)
		}
	}
	slices.SortFunc(t.Funcs, func(a, b FuncStat) int {
		return cmp.Or(cmp.Compare(b.Flat, a.Flat), cmp.Compare(b.Cum, a.Cum), strings.Compare(a.Name, b.Name))
	})
	return t, nil
}

// pprofTop runs `go <args>` and parses its -top report: the "Type:"
// header, the "Showing nodes accounting for SHOWN, P% of TOTAL total"
// line, and one row per function below the "flat flat% sum% cum cum%"
// header. Values are printed in the base unit, suffix appended (zero
// bare).
func pprofTop(suffix string, args ...string) (t *Table, shown int64, err error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg, _, _ := strings.Cut(strings.TrimSpace(stderr.String()), "\n")
		if msg == "" {
			msg = err.Error()
		}
		return nil, 0, fmt.Errorf("go tool pprof: %s", msg)
	}
	value := func(s string) int64 {
		v, perr := strconv.ParseInt(strings.TrimSuffix(s, suffix), 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("go tool pprof: unexpected value %q", s)
		}
		return v
	}
	t = &Table{}
	rows := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		switch {
		case rows && len(f) >= 6:
			name := strings.Join(f[5:], " ")
			name = strings.TrimSuffix(strings.TrimSuffix(name, " (inline)"), " (partial-inline)")
			t.Funcs = append(t.Funcs, FuncStat{Name: name, Flat: value(f[0]), Cum: value(f[3])})
		case strings.HasPrefix(line, "Type: "):
			t.Type = strings.TrimPrefix(line, "Type: ")
		case strings.HasPrefix(line, "Showing nodes accounting for ") && len(f) == 9:
			shown, t.Total = value(strings.TrimSuffix(f[4], ",")), value(f[7])
		case len(f) == 5 && f[0] == "flat" && f[3] == "cum":
			rows = true
		}
	}
	if err == nil && t.Type == "" {
		err = fmt.Errorf("go tool pprof: no -top report in its output")
	}
	return t, shown, err
}

// Top returns the table truncated to its n heaviest functions by flat
// value (all of them if n <= 0 or beyond the end).
func (t *Table) Top(n int) []FuncStat {
	if n <= 0 || n > len(t.Funcs) {
		n = len(t.Funcs)
	}
	return t.Funcs[:n]
}

// FormatValue renders one value in the table's unit: seconds for
// nanosecond units, IEC bytes for byte units, plain counts otherwise.
func (t *Table) FormatValue(v int64) string {
	switch t.Unit {
	case "nanoseconds":
		return fmt.Sprintf("%.3fs", float64(v)/1e9)
	case "bytes":
		switch {
		case v >= 1<<30:
			return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
		case v >= 1<<20:
			return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
		case v >= 1<<10:
			return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
		default:
			return fmt.Sprintf("%dB", v)
		}
	default:
		return fmt.Sprintf("%d", v)
	}
}
