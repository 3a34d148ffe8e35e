// Structured per-cell metrics records: one JSON object per (benchmark,
// class, threads) cell, written as JSON Lines so sweeps can be appended
// to a single file and post-processed with standard tooling. The record
// carries the obs-layer runtime counters (per-worker busy and
// barrier-wait time, imbalance ratio) next to the headline numbers, so
// a load-balance anomaly like the paper's §5.2 CG scheduling problem is
// visible in the same row as the slowdown it causes.
package report

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"npbgo/internal/perfcount"
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
	Attempts  int     `json:"attempts,omitempty"`
	Error     string  `json:"error,omitempty"`
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

	// Counters is the hardware-counter attribution for the cell when
	// sampling was enabled and available: run totals (cycles,
	// instructions, LLC loads/misses, branch misses, task clock) plus
	// the per-worker split. Additive: absent on records written before
	// counters existed and on runs without the counters instrument.
	Counters *perfcount.Stats `json:"counters,omitempty"`
	// CountersNote records why Counters is absent when counters were
	// *requested* but could not be collected ("unavailable (<reason>)"),
	// so a missing measurement is always distinguishable from silent
	// zeros.
	CountersNote string `json:"counters_note,omitempty"`

	// CPUProfile/HeapProfile are the per-cell pprof files captured when
	// the sweep ran with the profile instrument, as written by the
	// harness — the inputs `npbperf hotspots` decodes. A failed or
	// killed cell keeps whatever it flushed before dying; absent on runs
	// without profiling.
	CPUProfile  string `json:"cpu_profile,omitempty"`
	HeapProfile string `json:"heap_profile,omitempty"`

	// Env is the environment of the process that actually executed the
	// cell, recorded only when it differs from the record header's Env —
	// under subprocess isolation the child stamps its own and the parent
	// forwards it here if the two ever disagree.
	Env *EnvInfo `json:"env,omitempty"`
}

// BenchSchema identifies the BenchRecord layout; bump it when the
// record shape changes incompatibly so downstream tooling can dispatch.
const BenchSchema = "npbgo/bench/v1"

// BenchRecord is the machine-readable performance trajectory of one
// suite sweep: every cell's headline numbers (Mop/s, elapsed time,
// thread count, imbalance) under a stamped header describing the host.
// One file per sweep (results/BENCH_<stamp>.json) accumulates into a
// perf history that can be diffed across commits — the paper's tables,
// but for trend tooling instead of eyeballs.
type BenchRecord struct {
	Schema     string `json:"schema"` // BenchSchema
	Stamp      string `json:"stamp"`  // UTC, 20060102T150405Z
	Class      string `json:"class"`
	GoMaxProcs int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	// Env is the recording host's provenance (Go version, GOGC, kernel,
	// CPU model), stamped so profiles and counters stay comparable —
	// or visibly incomparable — across machines. Additive: absent on
	// records written before provenance existed.
	Env   *EnvInfo      `json:"env,omitempty"`
	Cells []CellMetrics `json:"cells"`
}

// WriteBenchJSON writes rec as indented JSON (one record per file, so
// indentation costs nothing and keeps the history reviewable).
func WriteBenchJSON(w io.Writer, rec BenchRecord) error {
	return writeIndentedJSON(w, rec)
}

// writeIndentedJSON is the shared one-record writer behind every
// indented record schema.
func writeIndentedJSON(w io.Writer, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// WriteJSONL writes v as one JSON line.
func WriteJSONL(w io.Writer, v any) error {
	buf, err := json.Marshal(v)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}

// ReadBenchRecords decodes every BenchRecord in r, accepting both the
// indented one-record-per-file layout of WriteBenchJSON and streams of
// concatenated/JSONL records (so `cat results/BENCH_*.json` pipes
// straight in). Each record's schema is dispatched against BenchSchema;
// an unknown schema is a hard error naming both the found and the
// supported version, so stale tooling fails loudly instead of
// misreading a future layout. An input with no records is an error —
// every caller wants at least one.
//
// A record cut off by the end of the input is tolerated: a crash (or a
// kill -9) mid-append leaves exactly one torn record at the tail of an
// append-mode history file, and the complete records before it are
// still good data. The torn tail is dropped; corruption anywhere
// earlier in the stream stays a hard error, because it means the file
// was damaged, not merely interrupted.
func ReadBenchRecords(r io.Reader) ([]BenchRecord, error) {
	return readRecordStream[BenchRecord](r, "bench", BenchSchema,
		func(rec *BenchRecord) string { return rec.Schema })
}

// readRecordStream is the shared loader behind every record schema:
// decode a stream of JSON records, dispatch each record's schema stamp
// against the one supported version, tolerate exactly one crash-torn
// record at the tail, and treat an empty input as an error.
func readRecordStream[T any](r io.Reader, kind, want string, schema func(*T) string) ([]T, error) {
	dec := json.NewDecoder(r)
	var out []T
	for {
		var rec T
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if errors.Is(err, io.ErrUnexpectedEOF) {
			if len(out) == 0 {
				return nil, fmt.Errorf("report: input is one truncated %s record (crash-cut before any record completed)", kind)
			}
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("report: %s record %d: %w", kind, len(out)+1, err)
		}
		if got := schema(&rec); got != want {
			return nil, fmt.Errorf("report: %s record %d: unknown schema %q (this tool reads %q)",
				kind, len(out)+1, got, want)
		}
		out = append(out, rec)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("report: no %s records in input", kind)
	}
	return out, nil
}
