GO ?= go
# Per-target fuzzing budget for the fuzz target; the nightly workflow
# raises it to minutes (make fuzz FUZZTIME=5m).
FUZZTIME ?= 10s

.PHONY: verify build vet test race bench bench-all obs-bench campaign-smoke crash-resume-smoke explore-smoke rig-smoke kernel-diff-smoke fuzz

# Tier-1 verification: everything CI runs.
verify: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The coupling layer is the concurrency hot spot: callers sharing the
# envelope's read role, retransmit and watchdog timers, and transport
# teardown all race by design. The
# campaign engine joins the list: per-run isolation is a -race claim. So
# do the rigs (remote couplings serve from a goroutine), the experiments
# and the explorer (campaign shards share one observation handle) and the
# command line (telemetry server). The root TestRaceTargetCoversGoroutines
# fails when a package with a go statement is missing here.
race:
	$(GO) test -race ./internal/ipc/... ./internal/cosim/... ./internal/obs/... ./internal/campaign/... \
		./internal/coverify/... ./internal/experiments/... ./internal/explore/... ./cmd/castanet/...

# A short real campaign under the race detector: the engine's unit tests
# plus actual multi-shard campaigns through the CLI (the link-fault
# matrix, the switch matrix and the first runs of E8's table-fault sweep
# on the board rig), proving per-run isolation on the full rig stack, not
# just on synthetic cells.
# The serve-telemetry step starts a campaign with -serve and scrapes
# /metrics and /healthz mid-run, asserting the Prometheus exposition
# parses and carries per-shard progress. The race-instrumented binary is
# built once and reused for both campaigns — `go run -race` twice would
# pay the full compile twice.
campaign-smoke:
	$(GO) test -race -count=1 ./internal/campaign/...
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) build -race -o "$$tmp/castanet" ./cmd/castanet && \
		"$$tmp/castanet" -campaign faults -runs 10 -shards 4 -seed 7 && \
		"$$tmp/castanet" -campaign switch -runs 8 -shards 2 -seed 1 -failfast && \
		"$$tmp/castanet" -campaign tablefaults -runs 20 -shards 2
	$(GO) test -race -count=1 -run 'TestCommandLineTools/castanet-serve-telemetry' .

# Durability smoke: run a reference campaign, SIGKILL a checkpointed run
# of the same spec mid-flight, resume it, and require the resumed digest
# file to be byte-identical to the uninterrupted reference.
crash-resume-smoke:
	sh scripts/crash_resume_smoke.sh

# Explorer smoke: a pinned-seed coverage-guided exploration must finish,
# survive a SIGKILL/resume with a byte-identical digest, and cover
# strictly more bins than the static faults matrix at the same run
# budget — the claim that mutation toward uncovered bins earns its keep.
explore-smoke:
	sh scripts/explore_smoke.sh

# Kernel-equivalence smoke: the packed data plane must be observably
# identical to the plain nine-value event kernel — same VCD bytes, same
# event/run/delta/time-point counters, same coverage and profile — on the
# pinned property-test seeds, on X/Z/weak values crossing a signal's
# packed/nine-value boundary and on the full rig workloads, under the
# race detector, and every simulator must reach the packed plane at its
# first run. The same run checks rising-edge processes against their
# guarded level-process definition, parked processes against
# never-parking twins at every wake position, idle-clock elision against
# Step loops, cycle stepping against plain dispatch, and absorbed
# re-assertions against the event kernel's queued ones. All of the hdl
# package runs, so no test that compares the planes can miss a name
# filter; the filter selects only coverify's rig-level equivalence tests.
# -short keeps the hdl property tests at their pinned seeds; the nightly
# fuzz run explores beyond them.
kernel-diff-smoke:
	$(GO) test -race -count=1 -short -v ./internal/hdl/
	$(GO) test -race -count=1 -short -run 'KernelEquivalence|EdgeSensitivity|ParkWake|Elide|CycleStep|Absorb|Purity|FirstRunCompiles' -v ./internal/coverify/

# Rig smoke, on one binary built once: the reference campaigns must meet
# the per-group coverage floors committed in COVER_FLOOR.json (the
# parameters are the ones the floors were measured at; runs are
# seed-deterministic, so a miss means the instrumentation or the stimulus
# changed, not noise); the -profile hotspot table is a deterministic
# artifact, so two runs of the same experiment and seed must print
# byte-identical "profile " lines (the wall-clock "phase " lines after
# them legitimately differ and are excluded by the grep); and the
# accounting campaign, the profile's last rig to be wired, must publish
# process activity rather than an empty table; and the campaign digest
# file is a pure function of the spec, so the policer campaign (whose
# load_ratio sum is non-integral) writes the same bytes at 1 and 3 shards,
# and so does one full sweep of E8's table-fault matrix (260 runs), whose
# faultsim.fault cross must also meet its floor (8 of 10 bins: the two
# "other" bins are unreachable with the standard fault set).
rig-smoke:
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) build -o "$$tmp/castanet" ./cmd/castanet && \
		"$$tmp/castanet" -campaign switch -runs 16 -shards 2 -seed 1 -cover-floor COVER_FLOOR.json && \
		"$$tmp/castanet" -campaign policer -runs 8 -shards 2 -seed 2 -cover-floor COVER_FLOOR.json && \
		"$$tmp/castanet" -campaign acct -runs 6 -shards 2 -seed 3 -cover-floor COVER_FLOOR.json && \
		"$$tmp/castanet" -experiment e1 -cells 300 -seed 7 -profile | grep '^profile ' > "$$tmp/p1" && \
		"$$tmp/castanet" -experiment e1 -cells 300 -seed 7 -profile | grep '^profile ' > "$$tmp/p2" && \
		test -s "$$tmp/p1" && cmp "$$tmp/p1" "$$tmp/p2" && \
		"$$tmp/castanet" -campaign acct -runs 4 -seed 3 -profile > "$$tmp/acct" && ! grep -q 'processes=0' "$$tmp/acct" && \
		"$$tmp/castanet" -campaign policer -runs 48 -seed 7 -coverage -profile -shards 1 -digest "$$tmp/d1" > /dev/null && \
		"$$tmp/castanet" -campaign policer -runs 48 -seed 7 -coverage -profile -shards 3 -digest "$$tmp/d3" > /dev/null && \
		cmp "$$tmp/d1" "$$tmp/d3" && \
		"$$tmp/castanet" -campaign tablefaults -runs 260 -seed 1 -coverage -shards 1 -digest "$$tmp/t1" -cover-floor COVER_FLOOR.json > /dev/null && \
		"$$tmp/castanet" -campaign tablefaults -runs 260 -seed 1 -coverage -shards 3 -digest "$$tmp/t3" > /dev/null && \
		cmp "$$tmp/t1" "$$tmp/t3" && \
		echo "rig-smoke: coverage floors met, deterministic hotspot table ok, every rig profiled, digests shard-invariant"

# Coverage-guided fuzzing of the ipc frame and reliability-envelope
# decoders, the envelope's inbound dispatch (arbitrary units from the far
# end; only in-sequence envelope payloads may reach Recv) and the campaign
# checkpoint decoder, plus the differential
# kernel-equivalence fuzzer (random netlist programs through both HDL
# kernels, any observable divergence is a crash); seed corpora live in
# internal/ipc/testdata/fuzz/, internal/campaign/testdata/fuzz/ and
# internal/hdl/testdata/fuzz/.
# Each kernel-equivalence input runs about sixteen simulations, so the
# default 60 s minimization of every new input would spend the whole
# budget on the first few; -fuzzminimizetime=1x keeps the inputs as found
# and leaves the time to exploring.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime=$(FUZZTIME) ./internal/ipc/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenEnvelope$$' -fuzztime=$(FUZZTIME) ./internal/ipc/
	$(GO) test -run '^$$' -fuzz '^FuzzReliableInbound$$' -fuzztime=$(FUZZTIME) ./internal/ipc/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime=$(FUZZTIME) ./internal/campaign/
	$(GO) test -run '^$$' -fuzz '^FuzzKernelEquivalence$$' -fuzztime=$(FUZZTIME) -fuzzminimizetime=1x ./internal/hdl/

bench:
	$(GO) test -bench=Transport -benchtime=100x -run=^$$ ./internal/ipc/

# Observability overhead: ns/op on the hdl and ipc hot paths with the
# metrics/trace layer disabled (nil registry) vs enabled, written to
# BENCH_obs.json.
obs-bench:
	OBS_BENCH_OUT=$(CURDIR)/BENCH_obs.json $(GO) test -run TestWriteObsBench -count=1 -v ./internal/obs/

# Coupling throughput: one unit per δ-window vs one unit per message,
# the steady-state frame-encoder allocation count, and the headline sim-rate
# (clk_cycles_per_sec through the full coupled rig), written to
# BENCH_coupling.json. CI's bench-gate job regenerates this file and
# compares it against the committed baseline with cmd/benchgate.
bench-all: obs-bench
	COUPLING_BENCH_OUT=$(CURDIR)/BENCH_coupling.json $(GO) test -run 'TestWriteCouplingBench|TestWriteClockRateBench|TestWriteCompiledBench' -count=1 -v ./internal/ipc/
