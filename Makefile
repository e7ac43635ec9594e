# Shared entry points for humans and CI (.github/workflows/ci.yml calls
# exactly these targets, so a green `make ci` locally means a green pipeline).

GO ?= go

.PHONY: all build test race perfbench-test bench faults-smoke epochs-smoke scaling-smoke obs-smoke dist-demo bench-artifact gate report baseline sweep-dist series-report lint fmt ci clean

all: build

# ./... covers the library, cmds and examples; CI's build job additionally
# runs `go build ./examples/...` as an explicit guard.
build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the concurrent subsystems (the simulator's
# WorkerPool scheduler and its tracing, the experiment orchestrator, the
# adversary layer they both drive, the trace recorders, the telemetry
# registry, the sweep coordinator, and the real-transport backend with its
# per-node driver goroutines).
race:
	$(GO) test -race ./internal/sim/... ./internal/harness/... ./internal/adversary/... \
		./internal/trace/... ./internal/obs/... ./internal/sweep/... \
		./internal/transport/... ./internal/epoch/...

# Self-tests of the repository benchmark (perfbench/, a module of its own
# that ./... does not reach). It compiles against the sim and transport
# APIs, so this is what catches an API change breaking the benchmark.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Bench smoke: every benchmark once, to catch bit-rot in the benchmarks.
# It writes no files; the BENCH_harness.json gate artifact comes from
# bench-artifact.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Fault-injection smoke: the quick resilience curves (message loss,
# crash-stop, churn, jitter degradation) end to end through the adversary
# subsystem. CI's bench-smoke job runs this next to the benchmarks.
faults-smoke:
	$(GO) run ./cmd/lebench -exp faults -quick -parallel

# Epoch smoke: the quick repeated-election scenarios (seed-chained crash-
# recover and revoke histories under the static and traffic-adaptive
# adversary rungs) end to end through anonlead.RunEpochs, archived as the
# separate BENCH_epochs.json artifact and gated against the committed
# testdata/BENCH_epochs_baseline.json like the sweep (lereport_epochs.md
# holds the verdicts). CI's bench-smoke job runs this next to the fault
# curves.
epochs-smoke:
	$(GO) run ./cmd/lebench -exp epochs -quick -parallel -json BENCH_epochs.json
	$(GO) run ./cmd/lereport -fail-on regressed,removed -out lereport_epochs.md \
		testdata/BENCH_epochs_baseline.json BENCH_epochs.json

# Scaling smoke: one 100k-node expander cell under the streaming estimate
# regime, run twice so the second run demonstrates the profile-cache hit
# (cold cell budget: well under a minute; the repeat collapses to trial
# cost). CI's bench-smoke job runs this and archives BENCH_scaling.json.
scaling-smoke:
	$(GO) run ./cmd/lebench -exp scaling -quick -json BENCH_scaling.json

# Observability smoke: the quick gate sweep with telemetry fully on —
# per-round histograms in the artifact, phase spans as a Chrome trace, a
# CPU profile, and the metrics snapshot rendered into the phase-breakdown
# table. CI's bench-smoke job runs this and archives the outputs; the
# files are also the easiest local entry into "where does a sweep spend
# its time" (open TRACE_lebench.json in Perfetto, `go tool pprof
# CPU_lebench.pprof`).
obs-smoke:
	$(GO) run ./cmd/lebench -exp sweeps -quick -parallel -round-profile \
		-trace-out TRACE_lebench.json -metrics-out OBS_metrics.json \
		-cpuprofile CPU_lebench.pprof -json BENCH_obs.json
	$(GO) run ./cmd/lereport -phases OBS_metrics.json -out REPORT_obs.md BENCH_obs.json

# Distributed-transport smoke: a 16-node election where every node is its
# own OS process over localhost TCP, plus the in-memory replay of the same
# seed. The run fails unless both elect the same leader in the same rounds
# with the same CONGEST charge; DIST_demo.json correlates wall-clock per
# distributed round with the simulated round count. CI's bench-smoke job
# runs this and archives the artifact.
dist-demo:
	$(GO) run ./cmd/ledist -proto floodmax -graph cycle -n 16 -seed 1 -out DIST_demo.json

# The regression-gate sweep: every artifact cell (Table 1 + the X4
# knowledge ablation + the fault-injection resilience curves) at the
# promoted -quick defaults, written as a current-schema artifact. Deterministic
# for a fixed -seed regardless of worker/shard count, so the same command
# regenerates the same cells on any machine.
bench-artifact:
	$(GO) run ./cmd/lebench -exp sweeps -quick -parallel -json BENCH_harness.json

# Gate the freshly-swept artifact against the committed baseline: the
# two-point series baseline → head, failing on any variance-adjusted
# regression or on baseline cells missing from the head sweep, so
# shrinking the sweep can't hide one. lereport.md holds the head's report
# plus the verdicts (what CI's bench-gate job runs and summarizes).
gate: bench-artifact
	$(GO) run ./cmd/lereport -fail-on regressed,removed -out lereport.md \
		testdata/BENCH_baseline.json BENCH_harness.json

# Render the paper-style reproduction report from a fresh gate sweep
# (see README "Reading the results"). REPORT.md is a local artifact; the
# committed reference render lives at testdata/REPORT_baseline.md.
report: bench-artifact
	$(GO) run ./cmd/lereport -out REPORT.md BENCH_harness.json

# Refresh the committed baselines (the gate sweep and the epoch scenarios)
# after an intentional perf/complexity change (see README "Refreshing the
# baseline"); commit all three files. The
# report render is regenerated alongside so the golden tests stay in sync.
baseline:
	$(GO) run ./cmd/lebench -exp sweeps -quick -parallel -json testdata/BENCH_baseline.json
	$(GO) run ./cmd/lebench -exp epochs -quick -parallel -json testdata/BENCH_epochs_baseline.json
	$(GO) run ./cmd/lereport -title "anonlead reproduction report — baseline" \
		-out testdata/REPORT_baseline.md testdata/BENCH_baseline.json

# Distributed sweep + byte-identity proof: shard the gate matrix across
# two lesweep workers, rerun it single-process with timings stripped, and
# cmp the two files. Any byte of divergence — seed derivation leaking the
# worker topology, merge misplacing a cell — fails the target. CI's
# dist-sweep job runs exactly this.
sweep-dist:
	$(GO) run ./cmd/lesweep -workers 2 -quick -json BENCH_dist.json
	$(GO) run ./cmd/lebench -exp sweeps -quick -parallel -strip-timings -json BENCH_local.json
	cmp BENCH_dist.json BENCH_local.json
	@echo "distributed sweep is byte-identical to the local sweep"

# Cross-PR trend report: render the newest artifact plus the trajectory
# section over the archived series (oldest first — zero-padded run-id file
# names sort chronologically), failing on any net regression between the
# oldest archived point and the head sweep. With no archived artifacts
# there is no trajectory and the gate no-ops. CI's bench-gate job
# downloads prior bench-gate artifacts into $(SERIES_DIR) and runs this
# after `make gate`.
SERIES_DIR ?= series
series-report:
	$(GO) run ./cmd/lereport -title "Reproduction report (cross-PR series)" \
		-fail-on regressed \
		$(sort $(wildcard $(SERIES_DIR)/*.json)) BENCH_harness.json

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt:
	gofmt -w .

ci: build lint test race perfbench-test bench

clean:
	rm -f BENCH_harness.json BENCH_scaling.json BENCH_dist.json BENCH_local.json REPORT.md lereport.md
	rm -f BENCH_epochs.json lereport_epochs.md
	rm -f BENCH_obs.json TRACE_lebench.json OBS_metrics.json CPU_lebench.pprof REPORT_obs.md
	rm -f DIST_demo.json
	$(GO) clean -testcache
