// Structured per-cell metrics records: one JSON object per (benchmark,
// class, threads) cell, written as JSON Lines so sweeps can be appended
// to a single file and post-processed with standard tooling. The record
// carries the obs-layer runtime counters (per-worker busy and
// barrier-wait time, imbalance ratio) next to the headline numbers, so
// a load-balance anomaly like the paper's §5.2 CG scheduling problem is
// visible in the same row as the slowdown it causes.
package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// PhaseMetric is one named phase of a run profile.
type PhaseMetric struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Laps    int     `json:"laps,omitempty"`
}

// CellMetrics is the structured record for one sweep cell.
type CellMetrics struct {
	Benchmark string  `json:"benchmark"`
	Class     string  `json:"class"`
	Threads   int     `json:"threads"` // 0 = serial reference
	Elapsed   float64 `json:"elapsed_sec"`
	Mops      float64 `json:"mops"`
	Verified  bool    `json:"verified"`
	// Tier is the verification tier of a completed cell ("official",
	// "golden" or "none"), the one the suite table prints as no(tier)
	// when the cell did not verify. Empty on failed cells and on lines
	// written before it was recorded.
	Tier     string `json:"tier,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	// Fail is a failed cell's short reason, the one the suite table
	// prints as FAIL(reason): an npbgo.RunError kind ("config",
	// "panic", "cancelled", "verification"), "timeout" or "error".
	// Empty on lines written before it was recorded, which render
	// FAIL(error).
	Fail string `json:"fail,omitempty"`
	// Schedule is the team loop schedule the cell ran under; empty means
	// static (also the value on records written before schedules
	// existed, which is accurate — they all ran static).
	Schedule string `json:"schedule,omitempty"`

	// Samples holds every repeat's elapsed time in seconds, in run
	// order. Elapsed stays the best (minimum) repeat for back-compat;
	// perfstat's scaling view takes the cell's median over the full
	// distribution. Empty on records written before repeats were
	// retained.
	Samples []float64 `json:"samples_sec,omitempty"`

	// Obs-layer runtime counters; zero-valued when obs was disabled.
	Regions       uint64    `json:"regions,omitempty"`
	Cancellations uint64    `json:"cancellations,omitempty"`
	Panics        uint64    `json:"panics,omitempty"`
	WorkerBusy    []float64 `json:"worker_busy_sec,omitempty"`
	WorkerWait    []float64 `json:"worker_barrier_wait_sec,omitempty"`
	BarrierWait   float64   `json:"barrier_wait_sec,omitempty"`
	JoinWait      float64   `json:"join_wait_sec,omitempty"`
	Imbalance     float64   `json:"imbalance,omitempty"`

	TopPhases []PhaseMetric `json:"top_phases,omitempty"`

	// CPUProfile/HeapProfile are the per-cell pprof files captured when
	// the sweep ran with the profile instrument, as written by the
	// harness — the inputs `npbperf hotspots` decodes. A failed or
	// killed cell keeps whatever it flushed before dying; absent on runs
	// without profiling.
	CPUProfile  string `json:"cpu_profile,omitempty"`
	HeapProfile string `json:"heap_profile,omitempty"`

	// Env is the environment of the host that executed the cell,
	// recorded only when it differs from the record header's Env: a
	// -resume on another machine stamps each line it adds, so no cell is
	// credited to the machine that started the record.
	Env *EnvInfo `json:"env,omitempty"`
}

// BenchSchema identifies the bench record layout; bump it when the
// layout changes incompatibly so downstream tooling can dispatch.
const BenchSchema = "npbgo/bench/v2"

// BenchRecord is one suite sweep: a header naming the plan and the host,
// and one CellMetrics per finished cell. On disk it is JSON Lines: the
// header (every field but Cells) on the first line, then one line per
// cell in the order the cells finished. npbsuite -bench-json appends and
// fsyncs each line as its cell ends, so the record is also the sweep's
// crash-safe journal: the planned cells are harness.PlannedCells of
// Class, Threads and Benchmarks, each run under Schedule, and a planned
// cell without a line has not run (or was skipped by the memory guard).
type BenchRecord struct {
	Schema     string   `json:"schema"` // BenchSchema
	Stamp      string   `json:"stamp"`  // UTC, 20060102T150405Z
	Class      string   `json:"class"`
	Threads    []int    `json:"threads"`
	Benchmarks []string `json:"benchmarks"`
	// Schedule is the loop schedule every cell of the plan runs under,
	// as given to npbsuite -schedule; empty means static. Records
	// written before it was part of the plan lack it, and a resume takes
	// it from their cell lines (harness.ResumeRecord).
	Schedule string `json:"schedule,omitempty"`
	// Env is the recording host's provenance (Go version, GOMAXPROCS,
	// CPUs, GOGC, kernel, CPU model), stamped so profiles and counters
	// stay comparable — or visibly incomparable — across machines.
	Env   EnvInfo       `json:"env"`
	Cells []CellMetrics `json:"-"`
}

// WriteJSONL writes v as one JSON line in a single Write call.
func WriteJSONL(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadBenchRecords decodes every bench record in r. A header line starts
// a record and the cell lines after it belong to it, so `cat` of several
// record files reads as their records in order. A header under any other
// schema is a hard error naming both the found and the supported
// version, so stale tooling fails loudly instead of misreading a future
// layout. An input with no record is an error — every caller wants at
// least one.
//
// Bytes after the last newline are the line a crash (or a kill -9) tore
// mid-append, and are dropped: the lines before it are still good data.
// A malformed line anywhere earlier is a hard error, because it means
// the file was damaged, not merely interrupted.
func ReadBenchRecords(r io.Reader) ([]BenchRecord, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	data = data[:bytes.LastIndexByte(data, '\n')+1]
	var out []BenchRecord
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var head struct {
			Schema *string `json:"schema"`
		}
		err := json.Unmarshal(line, &head)
		switch {
		case err != nil: // a malformed line, reported below
		case head.Schema != nil && *head.Schema != BenchSchema:
			err = fmt.Errorf("unknown schema %q (this tool reads %q)", *head.Schema, BenchSchema)
		case head.Schema != nil:
			out = append(out, BenchRecord{})
			err = json.Unmarshal(line, &out[len(out)-1])
		case len(out) == 0:
			err = errors.New("cell line before any record header")
		default:
			rec := &out[len(out)-1]
			rec.Cells = append(rec.Cells, CellMetrics{})
			err = json.Unmarshal(line, &rec.Cells[len(rec.Cells)-1])
		}
		if err != nil {
			return nil, fmt.Errorf("report: bench line %d: %w", i+1, err)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("report: no bench records in input")
	}
	return out, nil
}
