// Command npb runs a single NAS Parallel Benchmark, like the individual
// NPB binaries (bt.S.x, cg.A.x, ...):
//
//	npb -bench BT -class A -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"npbgo"
)

func main() {
	bench := flag.String("bench", "CG", "benchmark: BT SP LU FT MG CG IS EP")
	class := flag.String("class", "S", "problem class: S W A B C")
	threads := flag.Int("threads", 1, "worker threads (1 = serial)")
	warmup := flag.Bool("warmup", false, "apply the per-thread warmup load of the paper's §5.2 (CG)")
	schedule := flag.String("schedule", "", "team loop schedule: static (default), dynamic, guided or stealing")
	verbose := flag.Bool("v", false, "print the full verification report")
	profile := flag.Bool("profile", false, "print a per-phase timing profile")
	flag.Parse()

	if len(*class) != 1 {
		fmt.Fprintln(os.Stderr, "npb: -class must be one letter")
		os.Exit(2)
	}
	cfg := npbgo.Config{
		Benchmark: npbgo.Benchmark(strings.ToUpper(*bench)),
		Class:     strings.ToUpper(*class)[0],
		Threads:   *threads,
		Warmup:    *warmup,
		Schedule:  *schedule,
		Profile:   *profile,
	}
	fmt.Printf("NAS Parallel Benchmarks (Go translation) - %s Benchmark\n", cfg.Benchmark)
	fmt.Printf(" Class %c, %d thread(s)\n", cfg.Class, cfg.Threads)
	res, err := npbgo.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "npb:", err)
		os.Exit(1)
	}
	fmt.Println(res)
	if *verbose {
		fmt.Print(res.Detail)
	}
	if res.Profile != "" {
		fmt.Println("phase profile:")
		fmt.Print(res.Profile)
	}
	if res.Failed {
		os.Exit(1)
	}
}
