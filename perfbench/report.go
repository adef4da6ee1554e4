package main

import (
	"fmt"
	"io"
)

// runReport measures every workload untraced and traced on seed and on the
// held-out seed, printing each invocation's summary, the tracing overhead
// per workload and the executor comparison. It fails if any point failed.
func runReport(w io.Writer, seed uint64, seconds float64, tiny bool, outDir string) error {
	failed := 0
	for _, sd := range []uint64{seed, heldOutSeed} {
		fmt.Fprintf(w, "== seed %d ==\n", sd)
		untraced := map[string]*measurement{}
		for _, name := range workloadNames() {
			var runs [2]*measurement
			for i, traced := range []bool{false, true} {
				m, err := measure(config{workload: name, seed: sd, seconds: seconds,
					traced: traced, tiny: tiny, outDir: outDir})
				if err != nil {
					return err
				}
				fmt.Fprintln(w, m.summary())
				failed += len(m.errs)
				runs[i] = m
			}
			untraced[name] = runs[0]
			// Tracing overhead: the traced run's CPU-profiled points against
			// the separate untraced run.
			fmt.Fprintf(w, "tracing overhead %s: traced orch.run_s %.6g / untraced %.6g = %.4f\n", name,
				median(runs[1].runSeconds(true)), median(runs[0].runSeconds(false)),
				median(runs[1].runSeconds(true))/median(runs[0].runSeconds(false)))
		}
		fmt.Fprintln(w, executorComparison(untraced["fabric-seq"], untraced["fabric-par2"]))
	}
	if failed > 0 {
		return fmt.Errorf("%d points failed their correctness checks", failed)
	}
	return nil
}

// executorComparison is the report line comparing fabric-par2's sim_speed
// with fabric-seq's on the same build and seed. It is a report, not a gated
// metric.
func executorComparison(seq, par *measurement) string {
	sq1, smed, sq3 := quartiles(seq.e2eValues("sim_speed"))
	pq1, pmed, pq3 := quartiles(par.e2eValues("sim_speed"))
	return fmt.Sprintf("executor comparison (sim_speed, sim-s/s): fabric-par2 median %.6g [q1 %.6g, q3 %.6g] n=%d "+
		"vs fabric-seq median %.6g [q1 %.6g, q3 %.6g] n=%d: ratio %.3f",
		pmed, pq1, pq3, len(par.samples), smed, sq1, sq3, len(seq.samples), pmed/smed)
}
