package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"npbgo"
	"npbgo/internal/report"
	"npbgo/internal/team"
)

// Record is an npbgo/bench/v2 record (report.BenchRecord): the sweep's
// performance record, its write-ahead journal, and the one value the
// tables render. The header line is written and fsync'd when the record
// starts; RunSweep appends each finished cell as one line and fsyncs it
// before the next cell starts, so a crash — OOM kill, power loss,
// SIGKILL — loses at most the line being written when it hit. The
// embedded BenchRecord's Cells are the lines in the file; a record from
// NewRecord has no file and holds them in memory only.
type Record struct {
	report.BenchRecord
	f syncFile
	// skipped holds the memory guard's refusals, which write no line:
	// SuiteTable renders them as SKIP(...), and a resume re-attempts
	// them.
	skipped map[CellKey]*SkipError
}

// syncFile is what a Record needs of its file: an *os.File, memFile, or
// a test's fake that logs the order of writes and syncs.
type syncFile interface {
	io.Writer
	Sync() error
	Close() error
}

// memFile is the file of a record held in memory only.
type memFile struct{ io.Writer }

func (memFile) Sync() error  { return nil }
func (memFile) Close() error { return nil }

// CellKey identifies one sweep cell. Threads 0 is the serial baseline
// column, as in the record's lines.
type CellKey struct {
	Benchmark string
	Class     string
	Threads   int
}

// PlannedCells is the cell list of a record's plan: for every benchmark
// of its header, the serial baseline followed by each thread count —
// exactly the execution order of Record.RunSweep, so a record's plan
// and its run cannot drift.
func PlannedCells(rec report.BenchRecord) []CellKey {
	var out []CellKey
	for _, b := range rec.Benchmarks {
		for _, th := range append([]int{0}, rec.Threads...) {
			out = append(out, CellKey{Benchmark: b, Class: rec.Class, Threads: th})
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

// NewRecord starts a record held in memory only, for a sweep that
// writes no -bench-json file: its lines are still the cells' one value,
// which the tables render.
func NewRecord(stamp string, benches []npbgo.Benchmark, class byte, threads []int, schedule string) *Record {
	r, _ := startRecord(memFile{io.Discard}, stamp, benches, class, threads, schedule) // a discarded write cannot fail
	return r
}

// startRecord writes and syncs the header to f; on failure f is closed.
func startRecord(f syncFile, stamp string, benches []npbgo.Benchmark, class byte, threads []int, schedule string) (*Record, error) {
	r := &Record{f: f, skipped: make(map[CellKey]*SkipError), BenchRecord: report.BenchRecord{Schema: report.BenchSchema,
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
	return &Record{BenchRecord: rec, f: f, skipped: make(map[CellKey]*SkipError)}, intact < len(data), nil
}

// Cell returns the line the record holds for a cell.
func (r *Record) Cell(k CellKey) (report.CellMetrics, bool) { return lineOf(r.BenchRecord, k) }

// lineOf returns the line rec holds for a cell.
func lineOf(rec report.BenchRecord, k CellKey) (report.CellMetrics, bool) {
	for _, m := range rec.Cells {
		if m.Benchmark == k.Benchmark && m.Class == k.Class && m.Threads == k.Threads {
			return m, true
		}
	}
	return report.CellMetrics{}, false
}

// RunSweep runs benchmark bench at the given class for the serial
// baseline (threads = 1, regions inline) and each requested thread
// count, under opt, into r. Every cell runs in this process, bounded by
// opt.Timeout, once the memory admission guard (admit) has let it in;
// opt.Repeats > 1 keeps every repeat's time in the line's samples and
// the best (minimum) as its headline, as benchmarkers do to suppress
// scheduling noise.
//
// A cell that already has a line — ok or failed, both terminal — is
// replayed from it instead of executed. Every executed cell's line is
// appended and fsync'd before the next cell starts, or anything renders
// FAIL(...): the partial record of a dying cell is its post-mortem. A
// memory-guard skip writes no line, nor does a cell cut short by
// cancelling opt.Context (^C, SIGTERM), nor any cell after it, so a
// resume runs them; a -timeout failure is the cell's own and stays
// terminal. The sweep degrades gracefully: a failed cell does not stop
// the ones after it, and the returned error joins the per-cell
// failures, replayed ones included, so a caller can both render the
// partial table and report that something went wrong. An append
// failure stops the sweep: a record that has lost durability must not
// pass for one that has not.
func (r *Record) RunSweep(bench npbgo.Benchmark, class byte, threads []int, opt Options) error {
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	var errs []error
	for _, th := range append([]int{0}, threads...) {
		k := CellKey{Benchmark: string(bench), Class: string(class), Threads: th}
		m, ok := r.Cell(k)
		var err error
		switch {
		case !ok:
			if skip := admit(cellConfig(bench, class, th, opt)); skip != nil {
				r.skipped[k] = skip
				continue
			}
			m, err = runCell(ctx, bench, class, th, opt)
			if err == nil || ctx.Err() == nil {
				if aerr := r.add(m); aerr != nil {
					return errors.Join(append(errs, fmt.Errorf("%s.%c record: %w", bench, class, aerr))...)
				}
			}
		case m.Error != "":
			err = errors.New(m.Error) // a replayed failure fails the sweep as it did when it ran
		}
		if err != nil {
			cell := fmt.Sprintf("threads=%d", th)
			if th == 0 {
				cell = "serial"
			}
			errs = append(errs, fmt.Errorf("%s.%c %s: %w", bench, class, cell, err))
		}
	}
	return errors.Join(errs...)
}

// add appends one cell line and fsyncs it. A line written on another
// host than the header's — a resume on a bigger machine — carries this
// host's env, so no cell is credited to the machine that started the
// record.
func (r *Record) add(m report.CellMetrics) error {
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
