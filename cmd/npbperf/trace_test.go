package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"npbgo/internal/trace"
)

// writeTraceFile traces a tiny two-worker run — one region, both
// workers' blocks, one barrier — and writes its execution trace.
func writeTraceFile(t *testing.T, dir, name string) string {
	t.Helper()
	tr := trace.New(context.Background(), "TEST.S.t2", 2)
	tr.Log(0, trace.Worker, tr.ID(0))
	tr.Region(0, trace.Region, func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			tr.Log(1, trace.Worker, tr.ID(1))
			tr.Region(1, trace.Block, func() {
				tr.Log(1, trace.Barrier, trace.Begin)
				tr.Log(1, trace.Barrier, trace.End)
			})
		}()
		tr.Region(0, trace.Block, func() {
			tr.Log(0, trace.Barrier, trace.Begin)
			tr.Log(0, trace.Barrier, trace.End)
		})
		<-done
	})
	tr.Stop()
	if tr.Data == nil {
		t.Skip("another execution tracer is running; the run only annotated it")
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, tr.Data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"trace"}, {"trace", "validate"}, {"trace", "frobnicate", "x.trace"}} {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errBuf.String(), "usage") {
			t.Errorf("run(%v) stderr: %q", args, errBuf.String())
		}
	}
}

func TestTraceValidateGoodTrace(t *testing.T) {
	path := writeTraceFile(t, t.TempDir(), "good.trace")
	var out, errBuf bytes.Buffer
	if code := run([]string{"trace", "validate", path}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	if s := out.String(); !strings.HasPrefix(s, "ok "+path+": ") || !strings.Contains(s, "2 tracks, 1 tasks") {
		t.Fatalf("validate line malformed: %q", s)
	}
}

func TestTraceSummaryPrintsTracks(t *testing.T) {
	path := writeTraceFile(t, t.TempDir(), "good.trace")
	var out, errBuf bytes.Buffer
	if code := run([]string{"trace", "summary", path}, &out, &errBuf); code != 0 {
		t.Fatalf("exit %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{path + ":", "tasks TEST.S.t2", "worker 0", "worker 1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestTraceMalformedExitsOne(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(bad, []byte("not an execution trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	if code := run([]string{"trace", "validate", bad}, &out, &errBuf); code != 1 {
		t.Fatalf("malformed trace exit %d, want 1", code)
	}
	if !strings.Contains(errBuf.String(), bad) {
		t.Fatalf("error does not name the file: %s", errBuf.String())
	}
	if code := run([]string{"trace", "summary", filepath.Join(dir, "missing.trace")}, &out, &errBuf); code != 1 {
		t.Fatal("missing file should exit 1")
	}
}
