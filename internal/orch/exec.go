package orch

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decomp"
	"repro/internal/link"
	"repro/internal/sim"
)

// One executor body. The paper's execution model (§3.2) is one loop: each
// runner advances its scheduler up to the horizon its lookahead channels
// allow, and placement only decides which components share a runner. Every
// entry point — sequential, placed, parallel, optimistic, checkpoint and
// resume — is that loop over some plan with some options, so all of them go
// through ExecutionPlan.execute. The standing invariant holds for each: a
// run is bit-identical to RunSequential for every placement, because sync
// cadence never schedules or reorders a simulation event.

// RunOptions tunes the executor. The zero value is the plain coupled
// executor: conservative, one sync exchange per sync interval.
type RunOptions struct {
	// BatchWindows amortizes horizon advancement: one sync exchange per
	// lookahead window instead of per sync interval
	// (link.Runner.SetBatchWindows). RunParallel sets it. It never changes
	// simulation content, but it does change the sync-message counts that
	// the placement study accounts, so unbatched runs stay available.
	BatchWindows bool
	// Optimistic runs every group in the optimistic loop (optimistic.go):
	// GVT horizon leaping, plus speculation past the committed horizon in
	// groups that can snapshot.
	Optimistic bool
	// MaxWindows is K for optimistic runs: how many sync windows past the
	// committed horizon each group may speculate. 0 keeps the optimistic
	// loop for its GVT leaping but never speculates. The depth adapts at
	// runtime — a rollback halves a group's working K, clean commits earn it
	// back — so MaxWindows is a ceiling, not a fixed operating point.
	MaxWindows int
}

// DefaultMaxWindows is RunOptimistic's speculation ceiling. K = 8 is deep
// enough to bridge the empty-window stretches of latency-dominated graphs
// while keeping the worst-case re-execution (one snapshot window) cheap.
const DefaultMaxWindows = 8

// execution is one run of a plan: the options plus the checkpoint steps
// around the run.
type execution struct {
	RunOptions
	resume  *Checkpoint // restore into the fresh build and resume at its time
	capture bool        // quiesce at the end time and capture a checkpoint
}

// execute is the executor body. It builds one scheduler and runner per
// group, wires the channels, attaches the components, optionally restores a
// checkpoint and installs speculation, hands the group to PreRun, runs to
// end, and optionally captures a checkpoint there. Runner i carries
// GroupNames[i]; experiments and the profiler key profiles by these labels.
//
// A one-group plan without remote connections has no channel to
// synchronize, so its runner runs inline on the caller's goroutine and a
// component panic propagates to the caller. With more groups every runner
// gets a goroutine, and a runner panic returns as an error carrying its
// stack.
func (pl *ExecutionPlan) execute(end sim.Time, x execution) (ck *Checkpoint, rep *SpecReport, err error) {
	s := pl.s
	if n := len(s.remotes); n > 0 {
		switch {
		case x.resume != nil || x.capture:
			return nil, nil, fmt.Errorf("%w: remote connections", core.ErrNotCheckpointable)
		case x.BatchWindows || x.Optimistic:
			return nil, nil, fmt.Errorf("%w: plan has %d remote connection(s)", ErrRemoteUnsupported, n)
		}
	}
	g := &link.Group{}
	scheds := make([]*sim.Scheduler, pl.NumGroups())
	for gi, name := range pl.GroupNames {
		scheds[gi] = sim.NewScheduler(int32(1000 + gi))
		if x.resume != nil {
			scheds[gi].StartAt(x.resume.At)
		}
		r := link.NewRunner(name, scheds[gi])
		r.SetBatchWindows(x.BatchWindows)
		r.SetRestored(x.resume != nil)
		g.Add(r)
	}
	// On every exit — success, error, or a panic on its way to the caller —
	// the events still queued are dropped and their pooled frames go back
	// to their pools, so the leak counters read zero after any run.
	defer func() {
		for _, sc := range scheds {
			sc.DiscardPending(core.ReleaseMessage)
		}
	}()
	pl.wire(g.Runners)
	for gi, members := range pl.groupComps {
		for _, ci := range members {
			c := s.comps[ci]
			g.Runners[gi].AddComponent(c, s.srcOf[c])
		}
	}
	if x.resume != nil {
		if err := s.restoreInto(x.resume, pl, scheds); err != nil {
			return nil, nil, err
		}
		// Lift every endpoint's pre-first-message horizon floor to the
		// resume time: a fresh endpoint that has heard nothing would
		// otherwise bound its runner to latency-from-zero and deadlock the
		// restored run.
		for _, r := range g.Runners {
			for _, e := range r.Endpoints() {
				e.SetStart(x.resume.At)
			}
		}
	}
	if x.Optimistic {
		pl.installSpec(g.Runners, x.MaxWindows)
	}
	s.Group = g
	if s.PreRun != nil {
		s.PreRun(g)
	}
	if len(g.Runners) == 1 && len(s.remotes) == 0 {
		g.Runners[0].Run(end)
	} else {
		err = g.Run(end)
	}
	if x.Optimistic {
		rep = pl.specReport(g.Runners)
	}
	if err != nil || !x.capture {
		return nil, rep, err
	}
	// Quiesce: every runner has joined at the sync horizon, but each stopped
	// as soon as it reached end without consuming peers' final-window
	// messages. Drain those residuals through the normal handle path — FIFO
	// timestamps plus the horizon invariant put them all at or after end,
	// so nothing schedules into the past — then assert every pipe is empty
	// (the outgoing direction is the peer's incoming one, so this sweep
	// covers both directions of every channel).
	for _, r := range g.Runners {
		for _, e := range r.Endpoints() {
			e.DrainResidual()
		}
	}
	for _, r := range g.Runners {
		for _, e := range r.Endpoints() {
			if !e.Quiesced() {
				return nil, rep, fmt.Errorf("orch: channel not quiesced at checkpoint horizon %v", end)
			}
		}
	}
	ck, err = s.capture(scheds, end)
	return ck, rep, err
}

// Run executes the plan under opts. The report is non-nil for optimistic
// runs. Plans with remote connections run only with the zero options —
// remote channels stay conservatively synchronized — and are rejected with
// ErrRemoteUnsupported otherwise.
func (pl *ExecutionPlan) Run(end sim.Time, opts RunOptions) (*SpecReport, error) {
	_, rep, err := pl.execute(end, execution{RunOptions: opts})
	return rep, err
}

// execute plans p and runs it.
func (s *Simulation) execute(end sim.Time, p decomp.Placement, x execution) (*Checkpoint, *SpecReport, error) {
	pl, err := s.Plan(p)
	if err != nil {
		return nil, nil, err
	}
	return pl.execute(end, x)
}

// RunSequential executes the whole simulation on a single scheduler until
// end (events at exactly end do not run) and returns that scheduler for
// statistics. It is the one-group plan, so every channel degrades to
// direct ports and the run happens on the caller's goroutine: a component
// panic propagates. Simulations with remote connections are coupled-only
// and panic here.
func (s *Simulation) RunSequential(end sim.Time) *sim.Scheduler {
	if len(s.remotes) > 0 {
		panic("orch: RunSequential on a simulation with remote connections; distributed runs are coupled-only")
	}
	if _, _, err := s.execute(end, decomp.SingleGroup(len(s.comps)), execution{}); err != nil {
		panic("orch: " + err.Error())
	}
	return s.sequentialScheduler()
}

// sequentialScheduler returns the scheduler of the last one-group run (a
// fresh one when the simulation has no components, hence no group).
func (s *Simulation) sequentialScheduler() *sim.Scheduler {
	if len(s.Group.Runners) == 0 {
		return sim.NewScheduler(0)
	}
	return s.Group.Runners[0].Scheduler()
}

// RunPlaced executes the simulation coupled under the given placement.
// Simulations with remote connections may use any placement; the remote
// channels stay synchronized regardless.
func (s *Simulation) RunPlaced(end sim.Time, p decomp.Placement) error {
	_, _, err := s.execute(end, p, execution{})
	return err
}

// RunCoupled executes the simulation with one runner (goroutine +
// scheduler) per component, synchronized through SplitSim channels — the
// per-component placement. The link.Group is stored on the Simulation for
// post-run inspection (profiling).
func (s *Simulation) RunCoupled(end sim.Time) error {
	return s.RunPlaced(end, decomp.PerComponent(len(s.comps)))
}

// RunParallel executes the simulation under the given placement with
// batched horizon windows, the multi-core configuration: every group runs
// on its own goroutine, and peers exchange one sync per lookahead window.
// Plans with remote connections are rejected with ErrRemoteUnsupported.
func (s *Simulation) RunParallel(end sim.Time, p decomp.Placement) error {
	_, _, err := s.execute(end, p, execution{RunOptions: RunOptions{BatchWindows: true}})
	return err
}

// RunOptimistic executes the simulation optimistically under the given
// placement, speculating up to DefaultMaxWindows sync windows ahead.
func (s *Simulation) RunOptimistic(end sim.Time, p decomp.Placement) (*SpecReport, error) {
	_, rep, err := s.execute(end, p, execution{RunOptions: RunOptions{
		BatchWindows: true, Optimistic: true, MaxWindows: DefaultMaxWindows}})
	return rep, err
}
