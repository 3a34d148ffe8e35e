// The profile subcommands: hotspots decodes the per-cell pprof files a
// sweep captured (npbsuite -instrument profile) into symbolized flat/cumulative
// hot-function tables, and profdiff judges two sweeps' profiles against
// each other with the same noise discipline `npbperf compare` applies
// to times — a function's share must be both statistically separated
// and practically shifted before it flags.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"npbgo/internal/profile"
	"npbgo/internal/report"
)

// cellProf is one sweep cell joined with its decoded profile table (or
// the reason it could not be decoded).
type cellProf struct {
	cell report.CellMetrics
	path string // resolved profile path ("" when the cell has none)
	tab  *profile.Table
	note string
}

// profKey identifies matching cells across two records.
type profKey struct {
	bench, class, schedule string
	threads                int
}

func (c cellProf) key() profKey {
	return profKey{c.cell.Benchmark, c.cell.Class, c.cell.Schedule, c.cell.Threads}
}

func (k profKey) String() string {
	cell := fmt.Sprintf("t%d", k.threads)
	if k.threads == 0 {
		cell = "serial"
	}
	if k.schedule != "" {
		cell += "/" + k.schedule
	}
	return fmt.Sprintf("%s.%s %s", k.bench, k.class, cell)
}

// resolveProfile makes a record's profile path usable from here: paths
// are recorded as written by the sweep (usually relative to its working
// directory), so a path that does not resolve directly is retried
// relative to the record file's own directory — the layout `npbsuite
// -instrument profile -bench-json results/` leaves behind.
func resolveProfile(recPath, profPath string) string {
	if profPath == "" {
		return ""
	}
	if _, err := os.Stat(profPath); err == nil || filepath.IsAbs(profPath) {
		return profPath
	}
	return filepath.Join(filepath.Dir(recPath), profPath)
}

// cellProfiles decodes the chosen profile of every cell of rec. A cell
// without a profile is skipped; a cell whose profile fails to decode
// (missing file, capture cut by a hard kill) is kept with its note —
// absence with a reason, never silently.
func cellProfiles(recPath string, rec report.BenchRecord, heap bool) []cellProf {
	var out []cellProf
	for _, c := range rec.Cells {
		path := c.CPUProfile
		if heap {
			path = c.HeapProfile
		}
		if path == "" {
			continue
		}
		cp := cellProf{cell: c, path: resolveProfile(recPath, path)}
		p, err := profile.ParseFile(cp.path)
		if err != nil {
			cp.note = err.Error()
			out = append(out, cp)
			continue
		}
		idx := p.DefaultIndex()
		if heap {
			if i := p.ValueIndex("alloc_space"); i >= 0 {
				idx = i
			}
		}
		tab, err := profile.Aggregate(p, idx)
		if err != nil {
			cp.note = err.Error()
			out = append(out, cp)
			continue
		}
		cp.tab = tab
		out = append(out, cp)
	}
	return out
}

// profileCell flattens one decoded cell into the npbgo/profile/v1 cell
// shape, joining the runtime diagnostics recorded next to the profile.
func profileCell(cp cellProf, top int) report.ProfileCell {
	pc := report.ProfileCell{
		Benchmark: cp.cell.Benchmark,
		Class:     cp.cell.Class,
		Threads:   cp.cell.Threads,
		Schedule:  cp.cell.Schedule,
		Profile:   cp.path,
		Imbalance: cp.cell.Imbalance,
		Note:      cp.note,
	}
	if c := cp.cell.Counters; c != nil {
		pc.IPC = c.IPC()
	}
	if t := cp.tab; t != nil {
		pc.Type = t.Type
		pc.Unit = t.Unit
		pc.Total = t.Total
		pc.Samples = t.Samples
		pc.AttributedPct = t.AttributedPct
		pc.Functions = t.Top(top)
	}
	return pc
}

// runHotspots renders the hot-function view of bench records written
// with profiling enabled.
func runHotspots(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hotspots", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output (schema npbgo/profile/v1)")
	top := fs.Int("top", 10, "functions per cell, by flat share")
	heap := fs.Bool("heap", false, "analyze the heap (alloc_space) profiles instead of CPU")
	minAttr := fs.Float64("min-attr", 0, "exit 1 when any decoded profile attributes less than this percentage to symbolized "+profile.KernelPrefix+" code")
	require := fs.Bool("require", false, "exit 1 unless at least one cell carries a decodable profile")
	if fs.Parse(args) != nil || fs.NArg() < 1 {
		usage(stderr)
		return 2
	}
	exit := 0
	decoded := false
	for _, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %v\n", err)
			return 2
		}
		recs, err := report.ReadBenchRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %s: %v\n", path, err)
			return 2
		}
		for _, rec := range recs {
			var cells []report.ProfileCell
			for _, cp := range cellProfiles(path, rec, *heap) {
				pc := profileCell(cp, *top)
				cells = append(cells, pc)
				if cp.tab != nil {
					decoded = true
					if *minAttr > 0 && !*heap && pc.AttributedPct < *minAttr {
						fmt.Fprintf(stderr, "npbperf: hotspots: %s attributes %.1f%% to %s code (floor %.1f%%)\n",
							cp.key(), pc.AttributedPct, profile.KernelPrefix, *minAttr)
						exit = 1
					}
				}
			}
			if *jsonOut {
				report.WriteProfileJSON(stdout, report.ProfileRecord{
					Schema: report.ProfileSchema, Stamp: rec.Stamp, Cells: cells})
				continue
			}
			renderHotspots(stdout, rec, cells)
		}
	}
	if *require && !decoded {
		fmt.Fprintln(stderr, "npbperf: hotspots -require: no cell carries a decodable profile (run npbsuite -instrument profile)")
		return 1
	}
	return exit
}

// renderHotspots prints the human view: a per-cell summary joined with
// the cell's imbalance and IPC, then the top functions of every cell.
func renderHotspots(stdout io.Writer, rec report.BenchRecord, cells []report.ProfileCell) {
	fmt.Fprintf(stdout, "record %s (GOMAXPROCS=%d, CPUs=%d)\n", rec.Stamp, rec.GoMaxProcs, rec.NumCPU)
	sum := report.New("Profiles per cell (Attr% = samples touching "+profile.KernelPrefix+" code)",
		"Cell", "Type", "Total", "Samples", "Attr%", "Imbal", "IPC")
	for _, pc := range cells {
		key := profKey{pc.Benchmark, pc.Class, pc.Schedule, pc.Threads}
		if pc.Note != "" {
			sum.AddRow(key.String(), "undecodable: "+pc.Note)
			continue
		}
		tab := profile.Table{Unit: pc.Unit}
		imbal, ipc := "-", "-"
		if pc.Imbalance > 0 {
			imbal = fmt.Sprintf("%.2f", pc.Imbalance)
		}
		if pc.IPC > 0 {
			ipc = fmt.Sprintf("%.2f", pc.IPC)
		}
		sum.AddRow(key.String(), pc.Type, tab.FormatValue(pc.Total),
			fmt.Sprintf("%d", pc.Samples), fmt.Sprintf("%.1f", pc.AttributedPct), imbal, ipc)
	}
	if len(cells) == 0 {
		sum.AddRow("(record carries no profiles; run npbsuite -instrument profile)")
	}
	fmt.Fprint(stdout, sum.String())
	for _, pc := range cells {
		if pc.Note != "" {
			continue
		}
		key := profKey{pc.Benchmark, pc.Class, pc.Schedule, pc.Threads}
		tab := profile.Table{Unit: pc.Unit}
		tb := report.New("Hot functions: "+key.String(), "Flat", "Flat%", "Cum", "Cum%", "Function")
		for _, fn := range pc.Functions {
			tb.AddRow(tab.FormatValue(fn.Flat), fmt.Sprintf("%.1f", fn.FlatPct),
				tab.FormatValue(fn.Cum), fmt.Sprintf("%.1f", fn.CumPct), fn.Name)
		}
		fmt.Fprint(stdout, tb.String())
	}
	fmt.Fprintln(stdout)
}

// runProfdiff judges head's profiles against base's, cell by matching
// cell. Exit 1 iff a significant shift exists — two identical sweeps
// must exit 0, which is what makes this usable as a gate.
func runProfdiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("profdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "machine-readable output")
	heap := fs.Bool("heap", false, "diff the heap (alloc_space) profiles instead of CPU")
	minDelta := fs.Float64("min-delta", 0.05, "absolute share shift a function must exceed to flag (0.05 = 5 points)")
	minShare := fs.Float64("min-share", 0.02, "functions below this share on both sides are ignored")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		usage(stderr)
		return 2
	}
	var sides [2][]cellProf
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %v\n", err)
			return 2
		}
		recs, err := report.ReadBenchRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "npbperf: %s: %v\n", path, err)
			return 2
		}
		if len(recs) != 1 {
			fmt.Fprintf(stderr, "npbperf: profdiff wants exactly one record per file, %s has %d\n", path, len(recs))
			return 2
		}
		sides[i] = cellProfiles(path, recs[0], *heap)
	}
	base := make(map[profKey]cellProf, len(sides[0]))
	for _, cp := range sides[0] {
		base[cp.key()] = cp
	}
	opt := profile.DiffOptions{MinShareDelta: *minDelta, MinShare: *minShare}

	type cellDiff struct {
		Cell string       `json:"cell"`
		Note string       `json:"note,omitempty"`
		Diff profile.Diff `json:"diff"`
	}
	var diffs []cellDiff
	significant := 0
	for _, head := range sides[1] {
		b, ok := base[head.key()]
		if !ok {
			continue // cell exists only in head; nothing to diff against
		}
		cd := cellDiff{Cell: head.key().String()}
		switch {
		case b.tab == nil:
			cd.Note = "base profile undecodable: " + b.note
		case head.tab == nil:
			cd.Note = "head profile undecodable: " + head.note
		default:
			cd.Diff = profile.CompareTables(b.tab, head.tab, opt)
			significant += cd.Diff.Significant
		}
		diffs = append(diffs, cd)
	}
	if *jsonOut {
		writeJSON(stdout, struct {
			Significant int        `json:"significant"`
			Cells       []cellDiff `json:"cells"`
		}{significant, diffs})
	} else {
		tb := report.New("Profile share shifts (flagged = separated CI and |delta| >= min-delta)",
			"Cell", "Function", "Base%", "Head%", "Delta", "Flag")
		for _, cd := range diffs {
			if cd.Note != "" {
				tb.AddRow(cd.Cell, cd.Note)
				continue
			}
			for _, d := range cd.Diff.Deltas {
				flag := ""
				if d.Significant {
					flag = "SHIFT"
				}
				tb.AddRow(cd.Cell, d.Name,
					fmt.Sprintf("%.1f", d.BaseShare*100),
					fmt.Sprintf("%.1f", d.HeadShare*100),
					fmt.Sprintf("%+.1f", d.Delta*100), flag)
			}
		}
		if tb.NumRows() == 0 {
			tb.AddRow("(no overlapping profiled cells, or every function below min-share)")
		}
		fmt.Fprint(stdout, tb.String())
		fmt.Fprintf(stdout, "\n%d significant shift(s) across %d cell(s)\n", significant, len(diffs))
	}
	if significant > 0 {
		return 1
	}
	return 0
}
