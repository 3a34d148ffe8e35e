// The hotspot record schema (npbgo/profile/v1): the machine-readable
// output of `npbperf hotspots`, one record per analyzed bench record
// with one cell per decoded profile. It sits beside the bench schema
// the same way the journal schema does — a stamped, versioned layout
// that downstream tooling dispatches on instead of guessing.
package report

import (
	"io"

	"npbgo/internal/profile"
)

// ProfileSchema identifies the ProfileRecord layout; bump on
// incompatible change.
const ProfileSchema = "npbgo/profile/v1"

// ProfileCell is the hot-function attribution of one sweep cell,
// cross-referenced with the cell's runtime diagnostics: the hotspot
// table says *where* the time went, Imbalance and IPC say *why* — a
// single row reads "CG spends 61% in sparseMatVec, IPC 0.8, imbalance
// 1.02".
type ProfileCell struct {
	Benchmark string `json:"benchmark"`
	Class     string `json:"class"`
	Threads   int    `json:"threads"` // 0 = serial reference
	Schedule  string `json:"schedule,omitempty"`
	// Profile is the decoded pprof file, as recorded in the bench cell.
	Profile string `json:"profile"`
	// Type/Unit/Total/Samples mirror the aggregated dimension
	// (cpu/nanoseconds for CPU tables, alloc_space/bytes for heap).
	Type    string `json:"type,omitempty"`
	Unit    string `json:"unit,omitempty"`
	Total   int64  `json:"total,omitempty"`
	Samples int    `json:"samples,omitempty"`
	// AttributedPct is the share of the profile whose stacks touch
	// symbolized npbgo/internal/... code.
	AttributedPct float64 `json:"attributed_pct,omitempty"`
	// Imbalance and IPC are joined from the cell's obs and perfcount
	// records (zero when the sweep ran without the obs/counters instruments).
	Imbalance float64 `json:"imbalance,omitempty"`
	IPC       float64 `json:"ipc,omitempty"`
	// Note records why Functions is empty when the profile could not be
	// decoded (missing file, capture cut by a hard kill, ...) — absence
	// with a reason, never silently.
	Note      string             `json:"note,omitempty"`
	Functions []profile.FuncStat `json:"functions,omitempty"`
}

// ProfileRecord is the hotspot view of one bench record.
type ProfileRecord struct {
	Schema string        `json:"schema"` // ProfileSchema
	Stamp  string        `json:"stamp"`  // the source bench record's stamp
	Cells  []ProfileCell `json:"cells"`
}

// WriteProfileJSON writes rec as indented JSON, one record per call,
// mirroring WriteBenchJSON.
func WriteProfileJSON(w io.Writer, rec ProfileRecord) error {
	return writeIndentedJSON(w, rec)
}

// ReadProfileRecords decodes every ProfileRecord in r under the same
// stream conventions as ReadBenchRecords: indented or JSONL layouts,
// hard schema dispatch, one crash-torn tail record tolerated, empty
// input rejected.
func ReadProfileRecords(r io.Reader) ([]ProfileRecord, error) {
	return readRecordStream[ProfileRecord](r, "profile", ProfileSchema,
		func(rec *ProfileRecord) string { return rec.Schema })
}
