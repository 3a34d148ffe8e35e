// Package escape turns the Go compiler's escape-analysis diagnostics
// (`go build -gcflags=-m=2`) into a stable, diffable report — the
// compiler-precision complement to the allocgate budgets: allocgate
// shows that an iteration allocates, the report shows where. The
// report format is JSONL tagged
// "npbgo/escape/v1": a header record followed by one record per heap
// escape, sorted, so reports are byte-comparable across runs and the
// committed baseline diffs cleanly in review.
//
// Diffing is by (package, file, message) with multiplicities, not by
// line number: editing an unrelated part of a file moves every
// diagnostic below it, and a line-keyed diff would drown the one new
// escape in hundreds of moved ones. A genuinely new escape changes the
// multiset and is reported with the current file:line as the named
// site.
package escape

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Format tags the report header; bump the suffix on incompatible
// schema changes.
const Format = "npbgo/escape/v1"

// Record is one heap-escape diagnostic.
type Record struct {
	Pkg  string `json:"pkg"`  // import path, from the compiler's "# pkg" group header
	File string `json:"file"` // path as the compiler printed it (repo-relative)
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"` // normalized diagnostic, e.g. "func literal escapes to heap"
}

// header is the first JSONL record of a report.
type header struct {
	Format string `json:"format"`
}

// diagRe matches one compiler diagnostic line: file:line:col: message.
var diagRe = regexp.MustCompile(`^([^\s:]+\.go):(\d+):(\d+): (.*)$`)

// Parse extracts the heap-escape records from raw `go build
// -gcflags=-m=2` output. Package attribution follows the "# importpath"
// group headers the go tool emits. The verbose -m=2 stream carries each
// escape twice (once with a trailing colon introducing the flow
// explanation, once bare) plus indented flow lines; Parse normalizes
// and deduplicates so each site yields exactly one record.
func Parse(output string) []Record {
	var recs []Record
	seen := make(map[Record]bool)
	pkg := ""
	sc := bufio.NewScanner(strings.NewReader(output))
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "# ") {
			pkg = strings.TrimSpace(line[2:])
			continue
		}
		m := diagRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		msg := m[4]
		if strings.HasPrefix(msg, " ") {
			continue // indented flow/from explanation line
		}
		msg = strings.TrimSuffix(msg, ":")
		if !isEscape(msg) {
			continue
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		r := Record{Pkg: pkg, File: m[1], Line: ln, Col: col, Msg: msg}
		if !seen[r] {
			seen[r] = true
			recs = append(recs, r)
		}
	}
	Sort(recs)
	return recs
}

// isEscape reports whether a normalized diagnostic message describes a
// heap escape (as opposed to inlining chatter, "does not escape"
// confirmations, or parameter leak notes).
func isEscape(msg string) bool {
	return strings.HasSuffix(msg, "escapes to heap") ||
		strings.HasPrefix(msg, "moved to heap: ")
}

// Sort orders records deterministically: by package, file, line,
// column, message.
func Sort(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Msg < b.Msg
	})
}

// Write serializes a report: the format header followed by one JSON
// record per line, in sorted order.
func Write(w io.Writer, recs []Record) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(header{Format: Format}); err != nil {
		return err
	}
	sorted := append([]Record(nil), recs...)
	Sort(sorted)
	for _, r := range sorted {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// Read parses a report written by Write, validating the format header.
func Read(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	if !sc.Scan() {
		return nil, fmt.Errorf("escape: empty report (missing %s header)", Format)
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("escape: bad header: %w", err)
	}
	if h.Format != Format {
		return nil, fmt.Errorf("escape: format %q, want %q", h.Format, Format)
	}
	var recs []Record
	for n := 2; sc.Scan(); n++ {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("escape: line %d: %w", n, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return recs, nil
}

// Site is one (package, file, message) diff identity.
type Site struct {
	Pkg, File, Msg string
}

// Delta is one changed site in a baseline/current comparison. Base and
// Cur are the occurrence counts on each side; Sample points at a
// current occurrence (or, for a disappeared site, a baseline one) so
// the finding names a file:line.
type Delta struct {
	Site
	Base, Cur int
	Sample    Record
}

// Diff compares the current report against a baseline. added holds
// sites whose occurrence count grew (new escapes — a CI failure);
// removed holds sites whose count shrank (improvements; refresh the
// baseline to lock them in).
func Diff(baseline, current []Record) (added, removed []Delta) {
	type tally struct {
		base, cur int
		sample    Record // prefer a current occurrence
	}
	m := make(map[Site]*tally)
	at := func(r Record) *tally {
		k := Site{Pkg: r.Pkg, File: r.File, Msg: r.Msg}
		t := m[k]
		if t == nil {
			t = &tally{}
			m[k] = t
		}
		return t
	}
	for _, r := range baseline {
		t := at(r)
		t.base++
		if t.cur == 0 {
			t.sample = r
		}
	}
	for _, r := range current {
		t := at(r)
		if t.cur == 0 {
			t.sample = r
		}
		t.cur++
	}
	for k, t := range m {
		d := Delta{Site: k, Base: t.base, Cur: t.cur, Sample: t.sample}
		switch {
		case t.cur > t.base:
			added = append(added, d)
		case t.cur < t.base:
			removed = append(removed, d)
		}
	}
	sortDeltas(added)
	sortDeltas(removed)
	return added, removed
}

func sortDeltas(ds []Delta) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Msg < b.Msg
	})
}
