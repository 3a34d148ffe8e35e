package report

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestWriteJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rec := CellMetrics{
		Benchmark:  "cg",
		Class:      "S",
		Threads:    4,
		Elapsed:    1.25,
		Mops:       42.0,
		Verified:   true,
		Regions:    100,
		WorkerBusy: []float64{1.0, 0.9, 1.1, 1.0},
		Imbalance:  1.1,
		TopPhases:  []PhaseMetric{{Name: "t_conj_grad", Seconds: 1.2, Laps: 15}},
	}
	if err := WriteJSONL(&buf, rec); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	line := buf.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not exactly one line: %q", line)
	}
	var back CellMetrics
	if err := json.Unmarshal([]byte(line), &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Benchmark != "cg" || back.Threads != 4 || back.Imbalance != 1.1 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
	if len(back.TopPhases) != 1 || back.TopPhases[0].Laps != 15 {
		t.Fatalf("phases lost: %+v", back.TopPhases)
	}
}

// benchFixture is a two-cell record used by the writer/reader tests.
func benchFixture() BenchRecord {
	return BenchRecord{
		Schema:     BenchSchema,
		Stamp:      "20260801T120000Z",
		Class:      "S",
		Threads:    []int{2},
		Benchmarks: []string{"CG"},
		Env:        EnvInfo{GoMaxProcs: 4, NumCPU: 8},
		Cells: []CellMetrics{
			{Benchmark: "CG", Class: "S", Threads: 0, Elapsed: 0.40, Mops: 160,
				Verified: true, Attempts: 3, Samples: []float64{0.42, 0.40, 0.41}},
			{Benchmark: "CG", Class: "S", Threads: 2, Elapsed: 0.24, Mops: 270,
				Verified: true, Attempts: 3, Samples: []float64{0.24, 0.25, 0.26},
				Imbalance: 1.02, BarrierWait: 0.03},
		},
	}
}

// writeRecord appends rec to buf in the on-disk layout: the header line,
// then one line per cell.
func writeRecord(t *testing.T, buf *bytes.Buffer, rec BenchRecord) {
	t.Helper()
	if err := WriteJSONL(buf, rec); err != nil {
		t.Fatal(err)
	}
	for _, c := range rec.Cells {
		if err := WriteJSONL(buf, c); err != nil {
			t.Fatal(err)
		}
	}
}

// oldCell is a cell line as records written with the deleted counters
// instrument carry it: "counters" and "counters_note" beside the fields
// that remain.
const oldCell = `{"benchmark":"IS","class":"S","threads":2,"elapsed_sec":0.05,"mops":130,"verified":true,` +
	`"samples_sec":[0.05,0.06],"imbalance":1.01,"counters":{"set":"hardware","workers":2,"cycles":100,"instructions":250},` +
	`"counters_note":"unavailable (perf_event_open(hardware leader): no such file or directory)","cpu_profile":"IS.S.t2.cpu.pprof"}`

func TestReadBenchRecordsRoundTripBenchJSON(t *testing.T) {
	var buf bytes.Buffer
	want := benchFixture()
	writeRecord(t, &buf, want)
	if first, _, _ := strings.Cut(buf.String(), "\n"); strings.Contains(first, "elapsed_sec") {
		t.Fatalf("header line carries cells: %s", first)
	}
	// The loader ignores the counter fields of older records and keeps
	// the rest of their line.
	buf.WriteString(oldCell + "\n")
	recs, err := ReadBenchRecords(&buf)
	if err != nil {
		t.Fatalf("ReadBenchRecords: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	got := recs[0]
	if got.Stamp != want.Stamp || got.Env.GoMaxProcs != 4 || len(got.Cells) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Schema != BenchSchema || len(got.Threads) != 1 || got.Benchmarks[0] != "CG" {
		t.Fatalf("header lost: %+v", got)
	}
	if s := got.Cells[0].Samples; len(s) != 3 || s[0] != 0.42 {
		t.Fatalf("samples lost: %+v", s)
	}
	old := CellMetrics{Benchmark: "IS", Class: "S", Threads: 2, Elapsed: 0.05, Mops: 130, Verified: true,
		Samples: []float64{0.05, 0.06}, Imbalance: 1.01, CPUProfile: "IS.S.t2.cpu.pprof"}
	if !reflect.DeepEqual(got.Cells[2], old) {
		t.Fatalf("older cell line decoded as\n%+v\nwant\n%+v", got.Cells[2], old)
	}
}

// TestReadBenchRecordsConcatenatedStream: each header line starts a
// record, so two record files concatenated — as `cat
// results/BENCH_*.json` produces — read as two records, each with its
// own cells.
func TestReadBenchRecordsConcatenatedStream(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, benchFixture())
	second := benchFixture()
	second.Stamp = "20260802T000000Z"
	second.Cells = second.Cells[:1]
	writeRecord(t, &buf, second)
	recs, err := ReadBenchRecords(&buf)
	if err != nil {
		t.Fatalf("ReadBenchRecords: %v", err)
	}
	if len(recs) != 2 || recs[1].Stamp != "20260802T000000Z" {
		t.Fatalf("stream decode mismatch: %d records", len(recs))
	}
	if len(recs[0].Cells) != 2 || len(recs[1].Cells) != 1 {
		t.Fatalf("cells went to the wrong record: %d, %d", len(recs[0].Cells), len(recs[1].Cells))
	}
}

func TestReadBenchRecordsRejectsUnknownSchema(t *testing.T) {
	rec := benchFixture()
	rec.Schema = "npbgo/bench/v999"
	var buf bytes.Buffer
	writeRecord(t, &buf, rec)
	_, err := ReadBenchRecords(&buf)
	if err == nil {
		t.Fatal("unknown schema accepted")
	}
	if !strings.Contains(err.Error(), "npbgo/bench/v999") || !strings.Contains(err.Error(), BenchSchema) {
		t.Fatalf("error should name found and supported schemas: %v", err)
	}
	// The layout this one replaced is refused the same way.
	v1 := `{"schema":"npbgo/bench/v1","stamp":"S","class":"S","gomaxprocs":2,"numcpu":2,"cells":[]}` + "\n"
	if _, err := ReadBenchRecords(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "npbgo/bench/v1") {
		t.Fatalf("a v1 record must be refused by name: %v", err)
	}
}

// TestReadBenchRecordsEmptyInput: no input, a lone torn line, blank
// lines only, or cells with no header are not a record.
func TestReadBenchRecordsEmptyInput(t *testing.T) {
	for _, in := range []string{"", "{not json", "\n\n", `{"benchmark":"CG","class":"S","threads":0}` + "\n"} {
		if _, err := ReadBenchRecords(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestReadBenchRecordsGoldenFixture(t *testing.T) {
	f, err := os.Open("testdata/bench_v2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadBenchRecords(f)
	if err != nil {
		t.Fatalf("golden fixture must stay readable (schema %s): %v", BenchSchema, err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	rec := recs[0]
	if rec.Class != "S" || len(rec.Cells) != 8 {
		t.Fatalf("fixture shape changed: class=%q cells=%d", rec.Class, len(rec.Cells))
	}
	var sampled, failed int
	for _, c := range rec.Cells {
		if len(c.Samples) > 0 {
			sampled++
		}
		if c.Error != "" {
			failed++
		}
	}
	if sampled != 7 || failed != 1 {
		t.Fatalf("fixture cells: %d sampled, %d failed", sampled, failed)
	}
}

func TestWriteJSONLOmitsDisabledObs(t *testing.T) {
	var buf bytes.Buffer
	rec := CellMetrics{Benchmark: "ep", Class: "S", Threads: 1, Verified: true}
	if err := WriteJSONL(&buf, rec); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	s := buf.String()
	for _, key := range []string{"regions", "worker_busy_sec", "imbalance", "top_phases", "error"} {
		if strings.Contains(s, key) {
			t.Fatalf("disabled-obs record should omit %q: %s", key, s)
		}
	}
}

// TestReadBenchRecordsTruncatedTailFixture reads the checked-in
// crash-cut history file: three records, the last cut mid-way through
// its first cell line — exactly what a kill -9 during an append leaves
// behind. Every whole line must come back; the torn line must be
// dropped, not turned into an error.
func TestReadBenchRecordsTruncatedTailFixture(t *testing.T) {
	f, err := os.Open("testdata/bench_truncated.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := ReadBenchRecords(f)
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Stamp != "20260805T100000Z" || recs[1].Stamp != "20260805T110000Z" {
		t.Fatalf("wrong records survived: %s, %s", recs[0].Stamp, recs[1].Stamp)
	}
	if len(recs[0].Cells) != 1 || len(recs[1].Cells) != 1 || len(recs[2].Cells) != 0 {
		t.Fatalf("cells = %d, %d, %d; want 1, 1 and the torn one dropped",
			len(recs[0].Cells), len(recs[1].Cells), len(recs[2].Cells))
	}
}

// TestReadBenchRecordsTruncatedEverywhere sweeps every cut point of a
// one-record file: a cut anywhere in the header is no record (an
// error); after it, the record holds exactly the cell lines whose
// newline survived. No cut point may panic or fabricate a cell.
func TestReadBenchRecordsTruncatedEverywhere(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, benchFixture())
	whole := buf.Bytes()
	headerLen := bytes.IndexByte(whole, '\n') + 1
	for cut := 0; cut <= len(whole); cut++ {
		recs, err := ReadBenchRecords(bytes.NewReader(whole[:cut]))
		if cut < headerLen {
			if err == nil {
				t.Fatalf("cut %d inside the header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut %d after the header rejected: %v", cut, err)
		}
		if want := bytes.Count(whole[headerLen:cut], []byte("\n")); len(recs) != 1 || len(recs[0].Cells) != want {
			t.Fatalf("cut %d: %d records, want 1 with %d cells", cut, len(recs), want)
		}
	}
}

// TestReadBenchRecordsMidStreamCorruptionStillFatal: tolerance is for
// the tail only — a damaged whole line means the file is damaged, and
// must stay a loud error naming the line.
func TestReadBenchRecordsMidStreamCorruptionStillFatal(t *testing.T) {
	var buf bytes.Buffer
	writeRecord(t, &buf, benchFixture())
	buf.WriteString("]]not json[[\n")
	writeRecord(t, &buf, benchFixture())
	_, err := ReadBenchRecords(&buf)
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("mid-stream corruption: err = %v, want a line 4 error", err)
	}
}

// FuzzReadBenchRecords feeds the record loader arbitrary bytes. It must
// never panic; whatever it accepts holds only BenchSchema records; and
// bytes appended without a newline are a torn tail, so the accepted
// input reads back the same records with them.
func FuzzReadBenchRecords(f *testing.F) {
	f.Add([]byte("{\"schema\":\"npbgo/bench/v2\"}\n{\"benchmark\":\"CG\"}\n"), "{\"bench") // the rest of the corpus is under testdata/fuzz
	f.Fuzz(func(t *testing.T, data []byte, tail string) {
		recs, err := ReadBenchRecords(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rec := range recs {
			if rec.Schema != BenchSchema {
				t.Fatalf("record %d has schema %q", i, rec.Schema)
			}
		}
		torn := append(bytes.Clone(data), strings.ReplaceAll(tail, "\n", "")...)
		again, err := ReadBenchRecords(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("input accepted, but rejected with a torn tail %q: %v", tail, err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("torn tail %q changed the records:\n%+v\nwant\n%+v", tail, again, recs)
		}
	})
}
