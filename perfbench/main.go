// Command perfbench measures SplitSim's wall-clock performance: simulated
// seconds per wall second, set-up time, peak memory and sweep-point time on
// four workloads, and — with -trace 1 — where the time goes, module by
// module.
//
//	go build -o perfbench . && ./perfbench -workload fabric-seq -seed 1 -seconds 10 -trace 0
//
// One invocation runs one workload. It repeats whole points (set-up, run,
// checks) until -seconds have elapsed, checks every point's output against
// the reference for the seed, and prints one JSON object as its last line:
// the medians of the end-to-end metrics (-trace 0) or of the per-layer
// metrics (-trace 1). README.md defines every workload and metric.
//
// -report runs every workload untraced and traced on the given seed and on
// a held-out seed, and prints the correctness summary, the tracing overhead
// and the executor comparison (fabric-par2 against fabric-seq).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// heldOutSeed is the second seed -report checks every workload on.
const heldOutSeed = 0x5eed2

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed; the same seed builds the same simulation")
	seconds := fs.Float64("seconds", 10, "measurement time in wall seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	size := fs.String("size", "full", "workload size: full or tiny (tiny is for the smoke test)")
	out := fs.String("out", ".bench_build/perfbench", "directory for span logs of traced runs")
	report := fs.Bool("report", false, "run every workload on -seed and a held-out seed and print the summary report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: unknown -size %q\n", *size)
		return 2
	}
	tiny := *size == "tiny"
	if *report {
		if err := runReport(stdout, *seed, *seconds, tiny, *out); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if workloadNamed(*name) == nil {
		fmt.Fprintf(stderr, "perfbench: unknown -workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}
	m, err := measure(config{
		workload: *name, seed: *seed, seconds: *seconds,
		traced: *trace == 1, tiny: tiny, outDir: *out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stderr, m.summary())
	res := m.result()
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(enc))
	return 0
}
