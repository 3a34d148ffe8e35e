package profile

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// enc builds protobuf wire format by hand, mirroring the decoder's
// hand-rolled parsing — the tests own both ends of the wire.
type enc struct{ bytes.Buffer }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	e.WriteByte(byte(v))
}

func (e *enc) tag(field, wire int) { e.varint(uint64(field)<<3 | uint64(wire)) }

func (e *enc) intField(field int, v uint64) {
	e.tag(field, 0)
	e.varint(v)
}

func (e *enc) bytesField(field int, b []byte) {
	e.tag(field, 2)
	e.varint(uint64(len(b)))
	e.Write(b)
}

func (e *enc) packed(field int, vals ...uint64) {
	var body enc
	for _, v := range vals {
		body.varint(v)
	}
	e.bytesField(field, body.Bytes())
}

func valueType(typ, unit int) []byte {
	var e enc
	e.intField(1, uint64(typ))
	e.intField(2, uint64(unit))
	return e.Bytes()
}

func function(id uint64, name, file int) []byte {
	var e enc
	e.intField(1, id)
	e.intField(2, uint64(name))
	e.intField(4, uint64(file))
	return e.Bytes()
}

func location(id uint64, lines ...[2]uint64) []byte {
	var e enc
	e.intField(1, id)
	for _, ln := range lines {
		var le enc
		le.intField(1, ln[0])
		le.intField(2, ln[1])
		e.bytesField(4, le.Bytes())
	}
	return e.Bytes()
}

// testProfile is a two-dimension (samples/count + cpu/nanoseconds)
// profile with three functions:
//
//	f1 = npbgo/internal/cg.sparseMatVec (leaf of samples 1 and 2)
//	f2 = npbgo/internal/cg.(*CG).Run    (caller; also inline parent in loc 1)
//	f3 = main.main                      (root of everything, leaf of sample 3)
//
// Location 1 is an inline chain [f1 innermost, f2], location 2 is f2,
// location 3 is f3.
func testProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"npbgo/internal/cg.sparseMatVec", "cg.go",
		"npbgo/internal/cg.(*CG).Run", "main.main", "main.go"}
	var e enc
	e.bytesField(1, valueType(1, 2)) // samples/count
	e.bytesField(1, valueType(3, 4)) // cpu/nanoseconds

	// sample 1: stack loc1,loc3 — packed encodings
	var s1 enc
	s1.packed(1, 1, 3)
	s1.packed(2, 3, 30_000_000)
	e.bytesField(2, s1.Bytes())
	// sample 2: stack loc1,loc2,loc3 — unpacked encodings
	var s2 enc
	s2.intField(1, 1)
	s2.intField(1, 2)
	s2.intField(1, 3)
	s2.intField(2, 1)
	s2.intField(2, 10_000_000)
	e.bytesField(2, s2.Bytes())
	// sample 3: leaf main.main
	var s3 enc
	s3.packed(1, 3)
	s3.packed(2, 6, 60_000_000)
	e.bytesField(2, s3.Bytes())

	e.bytesField(4, location(1, [2]uint64{1, 42}, [2]uint64{2, 101}))
	e.bytesField(4, location(2, [2]uint64{2, 99}))
	e.bytesField(4, location(3, [2]uint64{3, 7}))
	e.bytesField(5, function(1, 5, 6))
	e.bytesField(5, function(2, 7, 6))
	e.bytesField(5, function(3, 8, 9))
	for _, s := range strs {
		e.bytesField(6, []byte(s))
	}
	e.intField(9, 1700000000)    // time_nanos
	e.intField(10, 2_000_000_00) // duration_nanos
	e.bytesField(11, valueType(3, 4))
	e.intField(12, 10_000_000) // period
	return e.Bytes()
}

func TestParseSyntheticProfile(t *testing.T) {
	p, err := Parse(testProfile(t))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(p.SampleTypes) != 2 || p.SampleTypes[0].Type != "samples" || p.SampleTypes[1] != (ValueType{"cpu", "nanoseconds"}) {
		t.Fatalf("sample types = %+v", p.SampleTypes)
	}
	if p.Period != 10_000_000 || p.PeriodType.Type != "cpu" {
		t.Fatalf("period = %d %+v", p.Period, p.PeriodType)
	}
	if len(p.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(p.Samples))
	}
	// Sample 1's stack must expand location 1's inline chain innermost
	// first: sparseMatVec, Run, then main.
	got := p.Samples[0].Stack
	want := []string{"npbgo/internal/cg.sparseMatVec", "npbgo/internal/cg.(*CG).Run", "main.main"}
	if len(got) != len(want) {
		t.Fatalf("sample 1 stack = %+v, want %v", got, want)
	}
	for i, w := range want {
		if got[i].Function != w {
			t.Fatalf("sample 1 frame %d = %q, want %q", i, got[i].Function, w)
		}
	}
	if got[0].Line != 42 || got[0].File != "cg.go" {
		t.Fatalf("leaf frame coordinates = %+v", got[0])
	}
	// Unpacked sample 2 must decode identically in shape.
	if n := len(p.Samples[1].Stack); n != 4 {
		t.Fatalf("sample 2 stack depth = %d, want 4 (inline chain + 2)", n)
	}
	if v := p.Samples[1].Values; v[0] != 1 || v[1] != 10_000_000 {
		t.Fatalf("sample 2 values = %v", v)
	}
	if p.DefaultIndex() != 1 {
		t.Fatalf("DefaultIndex = %d, want 1 (cpu)", p.DefaultIndex())
	}
	if i := p.ValueIndex("samples"); i != 0 {
		t.Fatalf("ValueIndex(samples) = %d", i)
	}
	if i := p.ValueIndex("absent"); i != -1 {
		t.Fatalf("ValueIndex(absent) = %d, want -1", i)
	}
}

func TestParseGzipped(t *testing.T) {
	raw := testProfile(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	p, err := Parse(gz.Bytes())
	if err != nil {
		t.Fatalf("Parse(gzipped): %v", err)
	}
	if len(p.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(p.Samples))
	}

	// A gzip stream cut mid-member must be rejected, not silently
	// half-decoded — this is the shape a hard-killed cell leaves behind.
	for _, cut := range []int{3, 10, gz.Len() / 2, gz.Len() - 1} {
		if _, err := Parse(gz.Bytes()[:cut]); err == nil {
			t.Fatalf("Parse(gzip cut at %d) succeeded, want error", cut)
		}
	}
}

func TestAggregateSynthetic(t *testing.T) {
	p, err := Parse(testProfile(t))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tab, err := Aggregate(p, 1) // cpu nanoseconds
	if err != nil {
		t.Fatalf("Aggregate: %v", err)
	}
	if tab.Total != 100_000_000 || tab.Samples != 3 {
		t.Fatalf("total = %d samples = %d", tab.Total, tab.Samples)
	}
	byName := map[string]FuncStat{}
	for _, f := range tab.Funcs {
		byName[f.Name] = f
	}
	mv := byName["npbgo/internal/cg.sparseMatVec"]
	if mv.Flat != 40_000_000 || mv.Cum != 40_000_000 {
		t.Fatalf("sparseMatVec = %+v", mv)
	}
	run := byName["npbgo/internal/cg.(*CG).Run"]
	if run.Flat != 0 || run.Cum != 40_000_000 {
		t.Fatalf("Run = %+v (cum must count the inline chain once per sample)", run)
	}
	mn := byName["main.main"]
	if mn.Flat != 60_000_000 || mn.Cum != 100_000_000 {
		t.Fatalf("main = %+v", mn)
	}
	// 40% of CPU touches npbgo/internal/ frames.
	if tab.AttributedPct < 39.9 || tab.AttributedPct > 40.1 {
		t.Fatalf("AttributedPct = %.2f, want 40", tab.AttributedPct)
	}
	// The heaviest flat function leads the table.
	if tab.Funcs[0].Name != "main.main" {
		t.Fatalf("top = %q, want main.main", tab.Funcs[0].Name)
	}
	if top := tab.Top(1); len(top) != 1 || top[0].Name != "main.main" {
		t.Fatalf("Top(1) = %+v", top)
	}
	if got := tab.FormatValue(mv.Flat); got != "0.040s" {
		t.Fatalf("FormatValue = %q", got)
	}
	if _, err := Aggregate(p, 5); err == nil {
		t.Fatal("Aggregate with out-of-range index succeeded")
	}
}

// corrupt applies a structural mutation and asserts rejection.
func TestParseRejectsCorruptStreams(t *testing.T) {
	base := testProfile(t)
	cases := map[string]func() []byte{
		"truncated varint": func() []byte {
			var e enc
			e.tag(9, 0)
			e.WriteByte(0x80) // continuation bit with no next byte
			return e.Bytes()
		},
		"varint overflow": func() []byte {
			var e enc
			e.tag(9, 0)
			for i := 0; i < 11; i++ {
				e.WriteByte(0x80)
			}
			e.WriteByte(0x01)
			return e.Bytes()
		},
		"length past end": func() []byte {
			var e enc
			e.tag(6, 2)
			e.varint(1000)
			e.WriteString("short")
			return e.Bytes()
		},
		"group wire type": func() []byte {
			var e enc
			e.tag(7, 3)
			return e.Bytes()
		},
		"string index out of range": func() []byte {
			var e enc
			e.bytesField(1, valueType(99, 0))
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"unknown location reference": func() []byte {
			var e enc
			e.bytesField(1, valueType(0, 0))
			var s enc
			s.packed(1, 7)
			s.packed(2, 1)
			e.bytesField(2, s.Bytes())
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"unknown function reference": func() []byte {
			var e enc
			e.bytesField(4, location(1, [2]uint64{9, 1}))
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"value/type arity mismatch": func() []byte {
			var e enc
			e.bytesField(1, valueType(0, 0))
			e.bytesField(1, valueType(0, 0))
			var s enc
			s.packed(2, 5) // one value for two sample types
			e.bytesField(2, s.Bytes())
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"zero function id": func() []byte {
			var e enc
			e.bytesField(5, function(0, 0, 0))
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"zero location id": func() []byte {
			var e enc
			e.bytesField(4, location(0))
			e.bytesField(6, []byte(""))
			return e.Bytes()
		},
		"proto cut mid-message": func() []byte {
			return base[:len(base)-3]
		},
	}
	for name, build := range cases {
		if _, err := Parse(build()); err == nil {
			t.Errorf("%s: Parse succeeded, want error", name)
		}
	}
}

func TestParseToleratesUnknownFields(t *testing.T) {
	var e enc
	e.Write(testProfile(t))
	e.intField(7, 12)                   // drop_frames
	e.bytesField(3, []byte{0x08, 0x01}) // mapping {id:1}
	e.intField(99, 5)                   // far-future field
	e.tag(98, 1)                        // fixed64 field
	e.Write(make([]byte, 8))            //
	e.tag(97, 5)                        // fixed32 field
	e.Write(make([]byte, 4))            //
	p, err := Parse(e.Bytes())
	if err != nil {
		t.Fatalf("Parse with unknown fields: %v", err)
	}
	if len(p.Samples) != 3 {
		t.Fatalf("samples = %d, want 3", len(p.Samples))
	}
	if !strings.Contains(p.String(), "3 samples") {
		t.Fatalf("String() = %q", p.String())
	}
}

func TestParseFileErrors(t *testing.T) {
	if _, err := ParseFile(t.TempDir() + "/absent.pprof"); err == nil {
		t.Fatal("ParseFile(absent) succeeded")
	}
}
