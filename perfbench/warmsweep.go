package main

import (
	"fmt"

	"repro/internal/orch"
	"repro/internal/sim"
)

// The warm-started sweep: a smaller pod-split Clos running the fabric
// flows, with the workload engine registered as checkpoint aux state. It
// warms up once and checkpoints; every measured point then rebuilds,
// loads the checkpoint and resumes for a short window. Each point repeats
// the identity configuration, so each is checked against the uninterrupted
// run of the same length.

type warmSweepSize struct {
	fabric fabricSize // fabric.dur is the full horizon
	warmup sim.Time
}

func warmSweepSizeFor(tiny bool) warmSweepSize {
	if tiny {
		return warmSweepSize{
			fabric: fabricSize{spec: closSpec(4, 4, 2, 4, 4), hosts: 32, rate: 20_000, dur: 120 * sim.Microsecond},
			warmup: 100 * sim.Microsecond,
		}
	}
	return warmSweepSize{
		fabric: fabricSize{spec: closSpec(8, 8, 4, 8, 16), hosts: 256, rate: 20_000, dur: 2200 * sim.Microsecond},
		warmup: 2 * sim.Millisecond,
	}
}

type warmSweep struct {
	seed uint64
	size warmSweepSize
	ck   []byte         // checkpoint bytes taken at the warm-up horizon
	cold *fabricOutcome // the uninterrupted run to the full horizon

	// The point being measured, for check.
	cur           *fabricInstance
	base, resumed uint64 // events before the checkpoint and after resuming
	allocB        uint64
}

func newWarmSweep(seed uint64, tiny bool) *warmSweep {
	return &warmSweep{seed: seed, size: warmSweepSizeFor(tiny)}
}

// build builds one sweep instance: the fabric plus the engine as aux state.
func (w *warmSweep) build(tr *tracer, layers map[string]float64) *fabricInstance {
	fi := buildFabric(w.size.fabric, w.seed, tr, layers)
	fi.s.AddAuxState("wl", fi.eng)
	return fi
}

// prepare takes the checkpoint and runs the uninterrupted reference.
func (w *warmSweep) prepare(tr *tracer, fixed map[string]float64) error {
	fi := w.build(tr, map[string]float64{})
	tr.begin("ckpt.capture")
	ck, err := fi.s.CheckpointSequential(w.size.warmup)
	capture := tr.end()
	if err != nil {
		return fmt.Errorf("CheckpointSequential: %w", err)
	}
	w.ck = ck.Data
	fixed["ckpt.capture_s"] = capture
	fixed["ckpt.bytes"] = float64(len(ck.Data))

	cold := w.build(tr, map[string]float64{})
	out, err := cold.outcome(cold.s.RunSequential(w.size.fabric.dur).Processed())
	if err != nil {
		return fmt.Errorf("uninterrupted run: %w", err)
	}
	w.cold = &out
	if out.flows == 0 {
		return fmt.Errorf("uninterrupted run: no flow completed")
	}
	return nil
}

func (w *warmSweep) point(tr *tracer, s *sample) error {
	w.cur = nil
	tr.begin("setup")
	fi := w.build(tr, s.layers)
	s.setupS = tr.end()
	gc := collectSetupGarbage(tr)

	allocBefore := totalAlloc()
	tr.begin("run")
	tr.begin("ckpt.load")
	ck, err := orch.LoadCheckpoint(w.ck)
	s.layers["ckpt.load_s"] = tr.end()
	if err != nil {
		return fmt.Errorf("LoadCheckpoint: %w", err)
	}
	tr.begin("orch.run")
	sched, err := fi.s.ResumeSequential(ck, w.size.fabric.dur)
	s.runS = tr.end()
	tr.end()
	if err != nil {
		return fmt.Errorf("ResumeSequential: %w", err)
	}
	w.allocB = totalAlloc() - allocBefore
	w.resumed = sched.Processed()
	w.base = ck.BaseEvents
	s.layers["ckpt.resume_s"] = s.runS
	s.simS = (w.size.fabric.dur - ck.At).Seconds()
	s.pointS = s.setupS + gc + s.layers["ckpt.load_s"] + s.runS
	w.cur = fi
	return nil
}

// check holds the resumed point to the uninterrupted run.
func (w *warmSweep) check(s *sample) error {
	fi := w.cur
	w.cur = nil
	eventLayers([]uint64{w.resumed}, s.runS, w.allocB, s.layers)
	fabricLayers(fi.built, fi.s.Components(), fi.eng, fi.meta.TotalHosts(), s.runS, s.layers)
	out, err := fi.outcome(w.base + w.resumed)
	if err != nil {
		return err
	}
	if out != *w.cold {
		return fmt.Errorf("resumed point (digest %#x, %d events, %d flows) differs from the uninterrupted run (%#x, %d, %d)",
			out.digest, out.events, out.flows, w.cold.digest, w.cold.events, w.cold.flows)
	}
	return nil
}
