// The hotspot record schema (npbgo/profile/v1): the machine-readable
// output of `npbperf hotspots`, one record per analyzed bench record
// with one cell per decoded profile — a stamped, versioned layout that
// downstream tooling dispatches on instead of guessing.
package report

import (
	"encoding/json"
	"io"

	"npbgo/internal/profile"
)

// ProfileSchema identifies the ProfileRecord layout; bump on
// incompatible change.
const ProfileSchema = "npbgo/profile/v1"

// ProfileCell is the hot-function attribution of one sweep cell,
// cross-referenced with the cell's runtime diagnostics: the hotspot
// table says *where* the time went, Imbalance says whether the workers
// shared it — a single row reads "CG spends 61% in sparseMatVec,
// imbalance 1.02".
type ProfileCell struct {
	Benchmark string `json:"benchmark"`
	Class     string `json:"class"`
	Threads   int    `json:"threads"` // 0 = serial reference
	Schedule  string `json:"schedule,omitempty"`
	// Profile is the decoded pprof file, as recorded in the bench cell.
	Profile string `json:"profile"`
	// Type/Unit/Total mirror the table's dimension (cpu/nanoseconds
	// for CPU tables, alloc_space/bytes for heap).
	Type  string `json:"type,omitempty"`
	Unit  string `json:"unit,omitempty"`
	Total int64  `json:"total,omitempty"`
	// AttributedPct is the share of the profile whose stacks touch
	// symbolized npbgo/internal/... code.
	AttributedPct float64 `json:"attributed_pct,omitempty"`
	// Imbalance is joined from the cell's obs record (zero when the
	// sweep ran without the obs instrument).
	Imbalance float64 `json:"imbalance,omitempty"`
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

// WriteProfileJSON writes rec as indented JSON, one record per call.
func WriteProfileJSON(w io.Writer, rec ProfileRecord) error {
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(buf, '\n'))
	return err
}
