package report

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestCollectEnv(t *testing.T) {
	env := CollectEnv()
	if env.GoVersion != runtime.Version() {
		t.Fatalf("GoVersion = %q, want %q", env.GoVersion, runtime.Version())
	}
	if env.GoMaxProcs < 1 || env.NumCPU < 1 {
		t.Fatalf("GoMaxProcs = %d, NumCPU = %d, want >= 1", env.GoMaxProcs, env.NumCPU)
	}
	if env.GOGC == "" {
		t.Fatal("GOGC empty: unset must report the documented default")
	}
	// On this CI platform procfs exists, so the kernel release must be
	// populated; CPUModel may legitimately be empty on some arm64 hosts.
	if _, err := os.Stat("/proc/sys/kernel/osrelease"); err == nil && env.Kernel == "" {
		t.Fatal("Kernel empty despite procfs being available")
	}
}

func TestGOGCSetting(t *testing.T) {
	t.Setenv("GOGC", "")
	if got := gogcSetting(); got != "100" {
		t.Fatalf("unset GOGC = %q, want the documented default \"100\"", got)
	}
	t.Setenv("GOGC", "off")
	if got := gogcSetting(); got != "off" {
		t.Fatalf("GOGC=off reported as %q", got)
	}
}

func TestEnvComparable(t *testing.T) {
	// A resumed record stamps per-cell env copies via !=; a
	// slice or map field would turn that into a compile error, but guard
	// the semantic too: two snapshots of the same process are equal.
	if a, b := CollectEnv(), CollectEnv(); a != b {
		t.Fatalf("two snapshots of one process differ: %+v vs %+v", a, b)
	}
}

func TestCPUModelParsing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cpuinfo")
	const cpuinfo = "processor\t: 0\nvendor_id\t: GenuineIntel\nmodel name\t: Intel(R) Xeon(R) CPU @ 2.20GHz\nprocessor\t: 1\nmodel name\t: ignored second entry\n"
	if err := os.WriteFile(path, []byte(cpuinfo), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := cpuModel(path); got != "Intel(R) Xeon(R) CPU @ 2.20GHz" {
		t.Fatalf("cpuModel = %q", got)
	}
	if got := cpuModel(filepath.Join(dir, "missing")); got != "" {
		t.Fatalf("missing file should degrade to empty, got %q", got)
	}
	if got := firstLine(filepath.Join(dir, "missing")); got != "" {
		t.Fatalf("firstLine on missing file = %q", got)
	}
}
