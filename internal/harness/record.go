package harness

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"npbgo"
	"npbgo/internal/report"
	"npbgo/internal/team"
)

// Record is an open npbgo/bench/v2 file (report.BenchRecord): the
// sweep's performance record and its write-ahead journal in one. The
// header line is written and fsync'd when the file is created; RunSweep
// appends each finished cell as one line and fsyncs it before the next
// cell starts, so a crash — OOM kill, power loss, SIGKILL — loses at
// most the line being written when it hit. The embedded BenchRecord's
// Cells are the lines in the file.
type Record struct {
	report.BenchRecord
	f syncFile
}

// syncFile is what a Record needs of its file: an *os.File, or a test's
// fake that logs the order of writes and syncs.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

// CellKey identifies one sweep cell. Threads 0 is the serial baseline
// column, matching Run.
type CellKey struct {
	Benchmark string
	Class     string
	Threads   int
}

// PlannedCells is the cell list of a sweep set: for every benchmark, the
// serial baseline followed by each thread count — exactly the execution
// order of RunSweepOpts, so a record's plan and its run cannot drift.
func PlannedCells(benches []npbgo.Benchmark, class byte, threads []int) []CellKey {
	var out []CellKey
	for _, b := range benches {
		for _, th := range append([]int{0}, threads...) {
			out = append(out, CellKey{Benchmark: string(b), Class: string(class), Threads: th})
		}
	}
	return out
}

// CreateRecord starts a fresh record at path (truncating any previous
// file) and durably writes its header: the plan, with the loop schedule
// its cells run under (Options.Schedule), and this host's environment.
func CreateRecord(path, stamp string, benches []npbgo.Benchmark, class byte, threads []int, schedule string) (*Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return startRecord(f, stamp, benches, class, threads, schedule)
}

// startRecord writes and syncs the header to f; on failure f is closed.
func startRecord(f syncFile, stamp string, benches []npbgo.Benchmark, class byte, threads []int, schedule string) (*Record, error) {
	r := &Record{f: f, BenchRecord: report.BenchRecord{Schema: report.BenchSchema,
		Stamp: stamp, Class: string(class), Threads: threads, Schedule: schedule, Env: hostEnv()}}
	for _, b := range benches {
		r.Benchmarks = append(r.Benchmarks, string(b))
	}
	if err := r.write(r.BenchRecord); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// ResumeRecord reopens a record for a resumed sweep. It reads the record
// with report.ReadBenchRecords, cuts the line a crash tore mid-append
// (torn reports whether there was one), and leaves the file positioned
// after the last whole line, so the record is whole again before new
// cells land. The plan's schedule is the header's; a header written
// before the schedule was part of the plan takes its first cell line's.
// A schedule team.ParseSchedule no longer accepts is an error, so the
// resume fails before it runs anything.
func ResumeRecord(path string) (r *Record, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	recs, err := report.ReadBenchRecords(bytes.NewReader(data))
	if err != nil {
		return nil, false, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != 1 {
		return nil, false, fmt.Errorf("%s holds %d records; a resume needs exactly one", path, len(recs))
	}
	rec := recs[0]
	if rec.Schedule == "" && len(rec.Cells) > 0 {
		rec.Schedule = rec.Cells[0].Schedule
	}
	if _, err := team.ParseSchedule(rec.Schedule); err != nil {
		return nil, false, fmt.Errorf("%s: recorded %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, false, err
	}
	intact := bytes.LastIndexByte(data, '\n') + 1
	if err := f.Truncate(int64(intact)); err != nil {
		f.Close()
		return nil, false, err
	}
	return &Record{BenchRecord: rec, f: f}, intact < len(data), nil
}

// Cell returns the line the record holds for a cell. A nil record holds
// none.
func (r *Record) Cell(k CellKey) (report.CellMetrics, bool) {
	if r != nil {
		for _, m := range r.Cells {
			if m.Benchmark == k.Benchmark && m.Class == k.Class && m.Threads == k.Threads {
				return m, true
			}
		}
	}
	return report.CellMetrics{}, false
}

// RunSweep is RunSweepOpts recording into r. A cell that already has a
// line — ok or failed, both terminal — is replayed from it (Run.Replayed)
// instead of executed. Every executed cell's line is appended and
// fsync'd before the next cell starts, or anything renders FAIL(...). A
// memory-guard skip writes no line, nor does a cell cut short by
// cancelling opt.Context, so a resume re-attempts both. An append
// failure stops the sweep: a record that has lost durability must not
// pass for one that has not. On a nil record it is RunSweepOpts.
func (r *Record) RunSweep(bench npbgo.Benchmark, class byte, threads []int, opt Options) (Sweep, error) {
	return runSweep(bench, class, threads, opt, r)
}

// add appends one cell line and fsyncs it. A nil record drops it. A line
// written on another host than the header's — a resume on a bigger
// machine — carries this host's env, so no cell is credited to the
// machine that started the record.
func (r *Record) add(m report.CellMetrics) error {
	if r == nil {
		return nil
	}
	if env := hostEnv(); m.Env == nil && env != r.Env {
		m.Env = &env
	}
	if err := r.write(m); err != nil {
		return err
	}
	r.Cells = append(r.Cells, m)
	return nil
}

// write appends v as one JSON line and fsyncs the file.
func (r *Record) write(v any) error {
	if err := report.WriteJSONL(r.f, v); err != nil {
		return err
	}
	return r.f.Sync()
}

// Close closes the file; every line is already synced.
func (r *Record) Close() error { return r.f.Close() }
