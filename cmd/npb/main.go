// Command npb runs a single NAS Parallel Benchmark, like the individual
// NPB binaries (bt.S.x, cg.A.x, ...):
//
//	npb -bench BT -class A -threads 4
//
// A run that fails verification still prints its result line, and
// under -v the report naming each compared value, before exiting 1.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"npbgo"
	"npbgo/internal/team"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npb", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "CG", "benchmark: BT SP LU FT MG CG IS EP")
	class := fs.String("class", "S", "problem class: S W A B C")
	threads := fs.Int("threads", 1, "worker threads (1 = serial)")
	schedule := fs.String("schedule", "", "team loop schedule: "+strings.Join(team.ScheduleNames(), ", ")+" (default static)")
	verbose := fs.Bool("v", false, "print the full verification report")
	profile := fs.Bool("profile", false, "print a per-phase timing profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if len(*class) != 1 {
		fmt.Fprintln(stderr, "npb: -class must be one letter")
		return 2
	}
	cfg := npbgo.Config{
		Benchmark: npbgo.Benchmark(strings.ToUpper(*bench)),
		Class:     strings.ToUpper(*class)[0],
		Threads:   *threads,
		Schedule:  *schedule,
		Profile:   *profile,
	}
	fmt.Fprintf(stdout, "NAS Parallel Benchmarks (Go translation) - %s Benchmark\n", cfg.Benchmark)
	fmt.Fprintf(stdout, " Class %c, %d thread(s)\n", cfg.Class, cfg.Threads)
	res, err := npbgo.Run(cfg)
	// A verification mismatch is a completed run: its result and report
	// are what the failure is about, so they print before the exit.
	var re *npbgo.RunError
	if err != nil && !(errors.As(err, &re) && re.Kind == npbgo.ErrVerification) {
		fmt.Fprintln(stderr, "npb:", err)
		return 1
	}
	fmt.Fprintln(stdout, res)
	if *verbose {
		fmt.Fprint(stdout, res.Detail)
	}
	if res.Profile != "" {
		fmt.Fprintln(stdout, "phase profile:")
		fmt.Fprint(stdout, res.Profile)
	}
	if err != nil {
		fmt.Fprintln(stderr, "npb:", err)
		return 1
	}
	return 0
}
