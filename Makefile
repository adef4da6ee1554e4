# Tier-1 gate and convenience targets. `make check` is what every PR must
# keep green (see README.md); `make race` adds the data-race gate over the
# whole module (every package may run under the multi-core executor now);
# `make chaos` runs the transport
# fault-injection suite under the race detector; `make ckpt` is the raced
# checkpoint/restore determinism gate; `make bench` refreshes the committed
# benchmark baselines.

GO ?= go

.PHONY: check build vet test race chaos parallel spec scale ckpt bench all

all: check race

check: vet build test chaos parallel spec scale ckpt

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Multi-core executor gate: the parallel digest/wake/profiling tests under
# the race detector, so check catches both nondeterminism and data races
# when runner groups execute concurrently.
parallel:
	$(GO) test -race -run 'TestParallel' \
		./internal/link/ ./internal/orch/ ./internal/profiler/

# Optimistic executor gate: the speculation digest/rollback/leap property
# tests (bit-identity with sequential across placements and GOMAXPROCS
# levels) and the remote-rejection contract under the race detector, plus
# the rollback fuzz seed corpus.
spec:
	$(GO) test -race -run 'TestOptimistic|TestParallelRemote' ./internal/orch/
	$(GO) test -run 'FuzzOptimisticRollback' ./internal/orch/

# Fault-injection suite: supervised transport under connection kills,
# garbles, and delays, with goroutine-leak accounting — raced.
chaos:
	$(GO) test -race -run 'TestSupervised|TestSupervisor|TestPump|TestServe|TestDistributed' \
		./internal/proxy/ ./internal/orch/

# Datacenter-fabric smoke: a small prefix-routed Clos must build, route,
# and complete incast + shuffle workloads with zero frame leaks; the
# flow-level background tier must run a mixed-fidelity phase without
# materializing background hosts.
scale:
	$(GO) test -run 'TestScaleSmoke|TestScaleMixedSmoke' ./internal/experiments/
	$(GO) test -run 'TestFlowSmoke' ./internal/netsim/flowsim/

# Checkpoint/restore gate: deterministic checkpoints must restore
# bit-identically across placements and GOMAXPROCS levels, and the
# warm-started sweep's identity point must match its cold run — raced, since
# placed captures and resumes exercise the multi-core executor.
ckpt:
	$(GO) test -race -run 'TestCheckpoint|TestLoadCheckpoint|TestWarmStart' \
		./internal/orch/ ./internal/experiments/

bench:
	sh scripts/bench.sh
