// Subprocess cell isolation: each sweep cell executes in a child
// process watched by the parent, which hard-kills it on a deadline or
// RSS breach. The in-process timeout of Options.Timeout is cooperative
// — a runaway kernel that stops polling its context, or one allocating
// toward OOM, cannot be stopped from inside because goroutines are not
// killable — so the only bulkhead that actually holds is a process
// boundary. A killed cell degrades to a structured
// FAIL(timeout-killed | oom-killed) record and the sweep continues; an
// OOM-killed child no longer takes the whole sweep (and its record)
// down with it, which is what made the paper's FT memory-limit runs
// (§5) total losses.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"npbgo"
	"npbgo/internal/fault"
	"npbgo/internal/perfcount"
	"npbgo/internal/profile"
	"npbgo/internal/report"
)

// Isolation configures subprocess cell execution.
type Isolation struct {
	// Cmd is the argv prefix that re-enters this program in cell-runner
	// mode; the cell's CellSpec JSON is appended as the final argument.
	// npbsuite uses []string{os.Executable(), "-run-cell"}; tests use
	// the test binary with a helper-test filter.
	Cmd []string
	// MemLimitBytes kills the child when its resident set exceeds it;
	// 0 disables the RSS watchdog (the deadline watchdog still runs).
	MemLimitBytes uint64
	// Poll is the watchdog sampling interval; <= 0 means 25ms.
	Poll time.Duration
	// FaultRules are forwarded into each child's injection registry —
	// fault plans are process-local, so an isolated robustness run must
	// ship its plan across the process boundary.
	FaultRules []fault.Rule
}

// CellSpec is the parent-to-child payload: everything a child process
// needs to execute one cell.
type CellSpec struct {
	Benchmark  string       `json:"benchmark"`
	Class      string       `json:"class"`
	Threads    int          `json:"threads"`
	Warmup     bool         `json:"warmup,omitempty"`
	Schedule   string       `json:"schedule,omitempty"`
	Obs        bool         `json:"obs,omitempty"`
	Counters   bool         `json:"counters,omitempty"`
	FaultRules []fault.Rule `json:"fault_rules,omitempty"`
	// ProfileDir/ProfileLabel make the child capture its own CPU and
	// heap profiles (the profiler must run in the process being
	// profiled). The child writes to the shared per-cell paths; the
	// parent collects them from disk, so a child that flushed before
	// failing still hands over its profiles (a hard-killed child's
	// unflushed, zero-byte file is filtered out on collection).
	ProfileDir   string `json:"profile_dir,omitempty"`
	ProfileLabel string `json:"profile_label,omitempty"`
	// TracePath makes the child trace its run and write the execution
	// trace there, as it writes its profiles.
	TracePath string `json:"trace_path,omitempty"`
}

// CellResult is the child-to-parent payload, printed as one JSON object
// on the child's stdout. Errors travel inside it (with the child still
// exiting 0) so the parent can rebuild the structured *npbgo.RunError;
// a nonzero child exit means the protocol itself broke.
type CellResult struct {
	ElapsedSec float64 `json:"elapsed_sec"`
	Mops       float64 `json:"mops"`
	Verified   bool    `json:"verified"`
	Tier       string  `json:"tier,omitempty"`
	ErrKind    string  `json:"err_kind,omitempty"`
	Error      string  `json:"error,omitempty"`
	// Counter attribution crosses the process boundary with the cell:
	// the child samples, the parent stamps the metrics record.
	Counters     *perfcount.Stats `json:"counters,omitempty"`
	CountersNote string           `json:"counters_note,omitempty"`
	// Env is the child's own environment snapshot, always stamped; the
	// parent suppresses it when it matches its own, so per-cell
	// provenance appears in records only when it actually differs.
	Env *report.EnvInfo `json:"env,omitempty"`
}

// RunCellMain is the child-side entry point behind `npbsuite
// -run-cell`: decode the spec, arm any forwarded fault plan, execute
// the cell, print the CellResult. The return value is the process exit
// code.
func RunCellMain(specJSON string, out io.Writer) int {
	var spec CellSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "run-cell: bad spec: %v\n", err)
		return 2
	}
	if len(spec.FaultRules) > 0 {
		fault.Activate(spec.FaultRules...)
		defer fault.Reset()
	}
	cfg := npbgo.Config{
		Benchmark: npbgo.Benchmark(spec.Benchmark),
		Class:     classByte(spec.Class),
		Threads:   spec.Threads,
		Warmup:    spec.Warmup,
		Schedule:  spec.Schedule,
		Obs:       spec.Obs,
		Counters:  spec.Counters,
		Trace:     spec.TracePath != "",
	}
	var cap *profile.Capture
	if spec.ProfileDir != "" {
		c, err := profile.Start(spec.ProfileDir, spec.ProfileLabel)
		if err != nil {
			// A requested-but-impossible capture is a cell failure, not a
			// protocol failure: it travels inside the result like any
			// other cell error.
			env := report.CollectEnv()
			json.NewEncoder(out).Encode(CellResult{
				ErrKind: "profile", Error: err.Error(), Env: &env})
			return 0
		}
		cap = c
	}
	res, err := npbgo.Run(cfg)
	if serr := cap.Stop(); serr != nil && err == nil {
		err = serr
	}
	if werr := writeTrace(spec.TracePath, res.Trace); werr != nil && err == nil {
		err = werr
	}
	env := report.CollectEnv()
	cr := CellResult{
		ElapsedSec:   res.Elapsed.Seconds(),
		Mops:         res.Mops,
		Verified:     res.Verified,
		Tier:         res.Tier,
		Counters:     res.Counters,
		CountersNote: res.CountersNote,
		Env:          &env,
	}
	if err != nil {
		cr.Error = err.Error()
		cr.ErrKind = "error"
		var re *npbgo.RunError
		if errors.As(err, &re) {
			cr.ErrKind = re.Kind
		}
	}
	if jerr := json.NewEncoder(out).Encode(cr); jerr != nil {
		fmt.Fprintf(os.Stderr, "run-cell: encode: %v\n", jerr)
		return 2
	}
	return 0
}

func classByte(s string) byte {
	if s == "" {
		return 'S'
	}
	return s[0]
}

// runIsolated executes one cell as a watched child process. timeout is
// the hard per-attempt deadline (0 = unbounded); the context cancels
// the child too (sweep-level cancellation). profileDir/label, when set,
// make the child capture its own profiles, and tracePath its execution
// trace. The returned EnvInfo is the child's environment when it
// differs from this process's, nil when identical (the common case —
// same binary, same host) or when the child died before reporting.
func runIsolated(ctx context.Context, cfg npbgo.Config, timeout time.Duration, iso *Isolation, profileDir, label, tracePath string) (npbgo.Result, *report.EnvInfo, error) {
	res := npbgo.Result{Benchmark: cfg.Benchmark, Class: cfg.Class, Threads: cfg.Threads}
	if len(iso.Cmd) == 0 {
		return res, nil, errors.New("harness: Isolation.Cmd is empty")
	}
	spec := CellSpec{
		Benchmark: string(cfg.Benchmark), Class: string(cfg.Class),
		Threads: cfg.Threads, Warmup: cfg.Warmup, Schedule: cfg.Schedule, Obs: cfg.Obs,
		Counters: cfg.Counters, FaultRules: iso.FaultRules,
		ProfileDir: profileDir, ProfileLabel: label, TracePath: tracePath,
	}
	payload, err := json.Marshal(spec)
	if err != nil {
		return res, nil, fmt.Errorf("harness: isolate: %w", err)
	}
	cmd := exec.Command(iso.Cmd[0], append(append([]string{}, iso.Cmd[1:]...), string(payload))...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return res, nil, fmt.Errorf("harness: isolate: %w", err)
	}
	waitErr, killed := watchChild(ctx, cmd, timeout, iso)
	res.Elapsed = time.Since(start)
	if killed != nil {
		return res, nil, killed
	}
	if waitErr != nil {
		return res, nil, fmt.Errorf("harness: isolated cell exited abnormally: %w (stderr: %s)",
			waitErr, strings.TrimSpace(stderr.String()))
	}
	var cr CellResult
	if err := json.NewDecoder(&stdout).Decode(&cr); err != nil {
		return res, nil, fmt.Errorf("harness: isolated cell protocol: %w (stderr: %s)",
			err, strings.TrimSpace(stderr.String()))
	}
	env := cr.Env
	if env != nil && *env == hostEnv() {
		env = nil
	}
	res.Elapsed = time.Duration(cr.ElapsedSec * float64(time.Second))
	res.Mops = cr.Mops
	res.Verified = cr.Verified
	res.Tier = cr.Tier
	res.Counters = cr.Counters
	res.CountersNote = cr.CountersNote
	if cr.Error != "" {
		return res, env, &npbgo.RunError{Benchmark: cfg.Benchmark, Class: cfg.Class,
			Threads: cfg.Threads, Kind: cr.ErrKind, Cause: errors.New(cr.Error)}
	}
	return res, env, nil
}

// watchChild waits for the child while running the deadline and RSS
// watchdogs. On a breach it hard-kills the child, reaps it, and returns
// the structured kill error; otherwise it returns the child's own exit
// status.
func watchChild(ctx context.Context, cmd *exec.Cmd, timeout time.Duration, iso *Isolation) (waitErr error, killed error) {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()

	var deadline <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		deadline = t.C
	}
	poll := iso.Poll
	if poll <= 0 {
		poll = 25 * time.Millisecond
	}
	ticker := time.NewTicker(poll)
	defer ticker.Stop()

	start := time.Now()
	kill := func(reason string) error {
		cmd.Process.Kill()
		<-done // reap; the kill is the verdict, not the exit status
		return &KilledError{Reason: reason, After: time.Since(start)}
	}
	for {
		select {
		case err := <-done:
			return err, nil
		case <-ctx.Done():
			return nil, kill("cancelled")
		case <-deadline:
			return nil, kill("timeout-killed")
		case <-ticker.C:
			if iso.MemLimitBytes > 0 {
				if rss, ok := processRSS(cmd.Process.Pid); ok && rss > iso.MemLimitBytes {
					return nil, kill("oom-killed")
				}
			}
		}
	}
}

// processRSS reads a process's resident set size from
// /proc/<pid>/status (VmRSS). ok is false where the probe is
// unavailable, which disables the RSS watchdog gracefully.
func processRSS(pid int) (uint64, bool) {
	buf, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseUint(fields[1], 10, 64)
				if err == nil {
					return kb * 1024, true
				}
			}
			return 0, false
		}
	}
	return 0, false
}
