GO ?= go

.PHONY: ci fmt-check vet build cross test race bench-test bench-smoke bench bench-gate flake-repeat fuzz-smoke loc cover report-smoke
.PHONY: obs-smoke chaos-smoke integrity-smoke cluster-smoke

# `race` runs every package under -race, so the four -race smokes below are
# developer shortcuts (one subsystem's tests, named), not CI steps.
ci: fmt-check vet build cross race bench-test fuzz-smoke cover bench-smoke bench-gate flake-repeat report-smoke

# Fails when any file is not gofmt-clean. The benchmark's build directory
# holds a Go cache, not source.
fmt-check:
	@out=$$(gofmt -l . | grep -v '^\.bench_build/'); \
	[ -z "$$out" ] || { echo "fmt-check: gofmt -l lists:"; echo "$$out"; exit 1; }

# Every package, the command entry points included, and asmdecl over the
# assembly: the matrix kernels (systolic/kernel_amd64.s), the fixed-point row
# passes (fixed/fixed_amd64.s), the float calibration pass
# (tensor/tensor_amd64.s) and the CPUID reads (cpu/cpu_amd64.s).
vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# The matrix kernel, the fixed-point row passes, the float calibration pass
# and the CPUID reads have amd64 assembly files; build everything and vet
# their packages (tests included) for another GOARCH so the portable file
# sets cannot rot. The portable matrix kernel reads weight words where they
# lie, the compiler writes the weight image as words, and the CRC views int8
# data as bytes, so all three are also built and vetted for a big-endian
# GOARCH. The float kernels must not fuse a multiply
# into an add (that rounds once, and every quantization scale would differ
# from amd64's), so arm64's assembly of internal/tensor may hold no
# FMADD/FMSUB/FNMADD/FNMSUB, and the amd64 assembly files of internal/tensor
# and internal/fixed no VFMADD/VFMSUB/VFNMADD/VFNMSUB outside a comment. The AMX tiles are requested from Linux by
# syscall, so the CPU flags and the matrix kernel are also built and vetted
# for amd64 on another OS. Works offline.
cross:
	GOOS=darwin GOARCH=amd64 $(GO) build ./internal/cpu/... ./internal/systolic/...
	GOOS=darwin GOARCH=amd64 $(GO) vet ./internal/cpu/... ./internal/systolic/...
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/systolic/... ./internal/fixed/... ./internal/cpu/... ./internal/tensor/... ./internal/integrity/...
	GOARCH=s390x $(GO) build ./internal/systolic/... ./internal/tensor/... ./internal/integrity/... ./internal/compiler/...
	GOARCH=s390x $(GO) vet ./internal/systolic/... ./internal/tensor/... ./internal/integrity/... ./internal/compiler/...
	@asm=$$(GOARCH=arm64 $(GO) build -gcflags=-S ./internal/tensor 2>&1) || { echo "$$asm"; exit 1; }; \
	if echo "$$asm" | grep -E '\sFN?M(ADD|SUB)[SD]\s'; then \
		echo "cross: fused multiply-add in arm64 internal/tensor"; exit 1; fi
	@if grep -nE '^[^/]*\<VFN?M(ADD|SUB)' internal/tensor/*_amd64.s internal/fixed/*_amd64.s; then \
		echo "cross: fused multiply-add in the amd64 assembly of internal/tensor or internal/fixed"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The benchmark harness is a nested module that root `go test ./...` does
# not see: its smoke run of all six workloads (~4 s) is what notices a
# signature the harness calls changing.
bench-test:
	cd bench && $(GO) test .

# Quick benchmark smoke: proves the kernel benchmarks still run — every
# kernel arm of BenchmarkMultiply (each assembly kernel the host can run,
# swar, scalar) at the shapes the repo runs (batches of 2, 16 and 64 rows,
# and 128 rows of a 36-deep contraction) and the wide MLP's stream of 64
# tiles accumulated four to an output tile, every path of the fixed-point row
# passes (scalar, AVX2 and the AVX-512 drain and quantize, where the host has
# them) and of the float calibration matmul, the two halves of a model's cold
# start (the wide MLP's quantize and compile), the wide MLP's warmed-up device
# run, and the CRC against its table oracle — without paying for a full
# measurement.
bench-smoke:
	$(GO) test ./internal/systolic -run xxx -bench BenchmarkMulRow -benchtime 100x
	$(GO) test ./internal/systolic -run xxx -bench 'BenchmarkMultiply/^B=(2|16|64|128,K=36)$$/' -benchtime 20x
	$(GO) test ./internal/systolic -run xxx -bench BenchmarkMultiplyStream -benchtime 2x
	$(GO) test ./internal/fixed -run xxx -bench 'DrainRow|SatAddRows|QuantizeInto|DequantizeInto|AbsMax' -benchtime 100x
	$(GO) test ./internal/tensor -run xxx -bench BenchmarkMatMulF32 -benchtime 5x
	$(GO) test ./internal/nn -run xxx -bench BenchmarkQuantizeModelWide -benchtime 2x
	$(GO) test ./internal/compiler -run xxx -bench BenchmarkCompileWide -benchtime 5x
	$(GO) test ./internal/tpu -run xxx -bench BenchmarkRunWide -benchtime 5x
	$(GO) test ./internal/integrity -run xxx -bench BenchmarkCRC -benchtime 100x

# Full benchmark sweep (tables, figures, kernels).
bench:
	$(GO) test -bench . -benchmem ./...

# Performance gates: the exact allocation tests behind what bench/ reports
# as allocs_per_op / bytes_per_op on device_sim, infer_batch, serve_closed
# and fleet_pod, plus a Table 3 wall-clock ceiling. The alloc gates are exact and
# noise-free: a zero-allocation packed matmul, a tile load that aliases the
# live weight image by address with a warmed-up device run under 16 KiB, a
# functional device that costs under 1 MiB to construct, a server whose four
# devices warmed on the wide MLP run one program, compiled once, and hold no
# quantized layer weights (the second device's warm-up grows the heap under
# 1 MiB), a zero-allocation
# Submit round trip, per-dispatch object and byte ceilings on the runtime
# backend (printed with what the dispatch measured), a zero-allocation
# des fire-and-reschedule cycle 2000 events deep that reuses its slot, percentiles that
# allocate only their copy and their result (on chunks, the copy of the few
# values near the ranks read), a router rebuild that reuses its slices, and a
# steady fleet run at no more than one allocation per five hundred events.
# The BenchmarkTable3 ceilings are min-of-3 wall clock (generous — the CI
# container's scheduler jitter swings tens of percent, but the ceiling
# still sits well under the pre-optimization ~1 ms) and an exact
# allocation count, which noise cannot move; both are taken at the one CPU
# they were set on. The six apps regenerate on one goroutine, so the
# allocation count is the same at any CPU count (31 allocs/op): a second
# run at -cpu 1,2 fails the gate if the two counts differ, as they do when
# the apps fan out over goroutines (31 on one CPU, 47 on two).
T3_CEILING_NS ?= 800000
T3_CEILING_ALLOCS ?= 48

# A gate selects its tests by name, and `go test -run` passes with "no tests
# to run" when a renamed test leaves a pattern matching nothing — a gate that
# runs nothing gates nothing. $(call gate-names,pkg,pattern) fails unless
# every |-alternative of the pattern names at least one test in the package;
# $(call gate-run,pkg,pattern) checks the names, then runs the tests.
define gate-names
	@for alt in $$(echo '$(2)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" $(1) | grep -qv '^ok' || \
			{ echo "gate-names: -run alternative $$alt names no test in $(1)"; exit 1; }; \
	done
endef

define gate-run
	$(call gate-names,$(1),$(2))
	$(GO) test -count=1 $(1) -run '$(2)'
endef

bench-gate:
	$(call gate-run,./internal/systolic,TestMultiplyIntoZeroAlloc)
	$(call gate-run,./internal/tpu,TestTileLoadAliasesWeightDRAM|TestNewDeviceFootprint)
	$(call gate-run,./internal/runtime,TestServerWeightFootprint)
	$(call gate-run,./internal/compiler,TestCompileAllocs)
	$(call gate-names,./internal/serve,SteadyStateAllocs)
	@out=$$($(GO) test -count=1 -v ./internal/serve -run SteadyStateAllocs) || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep -E 'backend dispatch:|^ok'
	$(call gate-run,./internal/des,TestSteadyStateAllocs)
	$(call gate-run,./internal/stats,TestPercentilesAllocs|TestChunkedPercentilesAllocs)
	$(call gate-run,./internal/cluster,TestClusterRunAllocs|TestRouteZeroAlloc|TestRebuildAllocs)
	@$(GO) test -run xxx -bench 'BenchmarkTable3$$' -cpu 1 -benchtime 600x -benchmem -count 3 . > bench-gate.out || { cat bench-gate.out; rm -f bench-gate.out; exit 1; }; \
	min=$$(awk '/^BenchmarkTable3/ && $$4 == "ns/op" {if (min == "" || $$3+0 < min) min = $$3+0} END {print min}' bench-gate.out); \
	allocs=$$(awk '/^BenchmarkTable3/ && $$8 == "allocs/op" {a = $$7+0} END {print a}' bench-gate.out); \
	rm -f bench-gate.out; \
	echo "BenchmarkTable3: min $$min ns/op (ceiling $(T3_CEILING_NS)), $$allocs allocs/op (ceiling $(T3_CEILING_ALLOCS))"; \
	[ -n "$$min" ] && [ "$$min" -le $(T3_CEILING_NS) ] || { echo "bench-gate: BenchmarkTable3 min $$min ns/op exceeds $(T3_CEILING_NS)"; exit 1; }; \
	[ -n "$$allocs" ] && [ "$$allocs" -le $(T3_CEILING_ALLOCS) ] || { echo "bench-gate: BenchmarkTable3 $$allocs allocs/op exceeds $(T3_CEILING_ALLOCS)"; exit 1; }
	@$(GO) test -run xxx -bench 'BenchmarkTable3$$' -cpu 1,2 -benchtime 200x -benchmem -count 3 . > bench-gate.out || { cat bench-gate.out; rm -f bench-gate.out; exit 1; }; \
	a1=$$(awk '$$1 == "BenchmarkTable3" && $$8 == "allocs/op" {if (a == "" || $$7+0 < a) a = $$7+0} END {print a}' bench-gate.out); \
	a2=$$(awk '$$1 == "BenchmarkTable3-2" && $$8 == "allocs/op" {if (a == "" || $$7+0 < a) a = $$7+0} END {print a}' bench-gate.out); \
	rm -f bench-gate.out; \
	echo "BenchmarkTable3: $$a1 allocs/op at -cpu 1, $$a2 at -cpu 2"; \
	[ -n "$$a1" ] && [ "$$a1" = "$$a2" ] || { echo "bench-gate: BenchmarkTable3 allocs/op depends on the CPU count ($$a1 at -cpu 1, $$a2 at -cpu 2)"; exit 1; }

# A test that once flaked runs 500 times (~5 s), so the race its fix closed
# stays closed: TestQuarantineProbeReadmits failed about 1 run in 40 while a
# hedge on another device could win its final run before the re-admitted
# device's own success was recorded. TestRepeatedSDCWalksHealthMachine and
# TestHedgeLoserSDCScrubbed run 300 times (~5 ms a run): with hedging on, a
# request can return before its losing attempt's corruption is counted.
# Each pattern passes the same "names a test" check as the gates above.
# The whole runtime package then runs 50 times (~11 s): one of its
# wall-clock tests failed once in a full `go test ./...`, its name lost
# from the captured tail, and a failure here names the test.
flake-repeat:
	$(call gate-names,./internal/runtime,^TestQuarantineProbeReadmits$$)
	$(GO) test -count=500 -run '^TestQuarantineProbeReadmits$$' ./internal/runtime
	$(call gate-names,./internal/runtime,^TestRepeatedSDCWalksHealthMachine$$|^TestHedgeLoserSDCScrubbed$$)
	$(GO) test -count=300 -run '^TestRepeatedSDCWalksHealthMachine$$|^TestHedgeLoserSDCScrubbed$$' ./internal/runtime
	@out=$$($(GO) test -count=50 ./internal/runtime 2>&1) || { echo "$$out" | grep -E '^(--- FAIL|FAIL|panic:|    )'; exit 1; }; \
	echo "$$out" | tail -1

# Fuzz smoke: run each native fuzz target for a few seconds so CI notices
# decoder, kernel-equivalence, row-pass-equivalence, device-vs-reference
# (decoded model shapes under every kernel rung), float-matmul, CRC,
# batching-lane, plan-spec parser, placement-vs-full-scan, latency-log percentile,
# percentile-selection, event-calendar, span-attribute-formatting and span-ring
# regressions without a dedicated fuzzing job. `go test -fuzz` passes with
# "no fuzz tests to fuzz" when the target is gone, so each target first
# passes the gates' "names a test" check (`go test -list` lists fuzz targets).
define fuzz-run
	$(call gate-names,$(1),^$(2)$$)
	$(GO) test $(1) -run '^$$' -fuzz '^$(2)$$' -fuzztime 5s
endef

fuzz-smoke:
	$(call fuzz-run,./internal/systolic,FuzzMulRowEquivalence)
	$(call fuzz-run,./internal/fixed,FuzzDrainRow)
	$(call fuzz-run,./internal/fixed,FuzzSatAddRows)
	$(call fuzz-run,./internal/fixed,FuzzQuantizeInto)
	$(call fuzz-run,./internal/fixed,FuzzDequantizeInto)
	$(call fuzz-run,./internal/tpu,FuzzDeviceBitExact)
	$(call fuzz-run,./internal/tensor,FuzzMatMulF32)
	$(call fuzz-run,./internal/integrity,FuzzCRC)
	$(call fuzz-run,./internal/isa,FuzzDecode)
	$(call fuzz-run,./internal/isa,FuzzProgramValidate)
	$(call fuzz-run,./internal/latency,FuzzLane)
	$(call fuzz-run,./internal/cluster,FuzzPlanSpecs)
	$(call fuzz-run,./internal/cluster,FuzzPlacement)
	$(call fuzz-run,./internal/cluster,FuzzLatencyPercentiles)
	$(call fuzz-run,./internal/stats,FuzzPercentiles)
	$(call fuzz-run,./internal/des,FuzzCalendar)
	$(call fuzz-run,./internal/obs,FuzzAttrValue)
	$(call fuzz-run,./internal/obs,FuzzTracerRing)

# Source size: non-test .go lines per internal/ package, nested packages
# included, then the internal/, cmd/ and examples/ totals — the numbers a
# simplification PR is judged on.
loc:
	@for d in $$(find internal -name '*.go' ! -name '*_test.go' | xargs -n1 dirname | sort -u); do \
		printf '%6d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done; \
	for d in internal cmd examples; do \
		printf '%6d %s total\n' $$(find $$d -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) $$d; \
	done

# The four -race smokes below select tests by name too, so each pattern
# passes the gates' "names a test" check first: a renamed or deleted test
# cannot leave an alternative that silently runs nothing.
# $(call race-run,pkg,pattern[,timeout]) checks the names, then runs the
# tests under -race.
define race-run
	$(call gate-names,$(1),$(2))
	$(GO) test -race -count=1$(if $(3), -timeout $(3)) $(1) -run '$(2)'
endef

# Observability smoke, race-enabled: boots the ops HTTP endpoint on a
# random port, scrapes /metrics and /healthz, validates the exported trace
# JSON parses, runs the end-to-end serve->runtime->device span test, and
# checks the serve log line of every request fate.
obs-smoke:
	$(call race-run,./internal/obs,TestOps)
	$(call race-run,./internal/serve,TestSubmitSpanTree|TestOpsServesServeMetrics|TestServerLogLines)

# Chaos smoke, race-enabled and bounded: the seeded fault injector's
# determinism contract, the runtime's failover/quarantine/hedging paths
# (RunAll's included) and its sinks read under a concurrent Observe,
# the serve layer's circuit breaker, the end-to-end chaos sweep (1
# dead + 1 throttled device of 4 under load; per-app error and p99
# bounds), and the closed world of fault kinds (each one fails a run,
# leaves its answer exact, or is a flip the SDC campaign ledgers).
chaos-smoke:
	$(GO) test -race -count=1 -timeout 300s ./internal/fault
	$(call race-run,./internal/runtime,TestFailover|TestQuarantine|TestTransientRetries|TestHedge|TestChaosDeterminism|TestRunAll|TestObserveDuringScrub,300s)
	$(call race-run,./internal/serve,TestBreaker|TestServerBreaker|TestServerBrownout|TestServerErroringBackend,300s)
	$(call race-run,./internal/experiments,TestChaos|TestEveryFaultKindAccounted,600s)

# Integrity smoke, race-enabled: the ABFT algebra (clean/single/double
# flip properties and the fuzz seed corpus), the CRC/parity guard units
# (UB, accumulators, weight DRAM, PCIe frames), the new flip fault kinds'
# determinism and parsing, the runtime's SDC recovery ladder
# (detect/scrub/retry, in-place correction, health-machine walk, a scrub
# pass repairing an off-tier flip), the serve layer's graceful drain, and
# the end-to-end SDC campaign over the six apps (>=99% of output-affecting
# flips detected, detect+correct bit-exact).
integrity-smoke:
	$(GO) test -race -count=1 -timeout 300s ./internal/integrity ./internal/pcie
	$(call race-run,./internal/systolic,TestABFT|FuzzChecksumVerify,300s)
	$(call race-run,./internal/memory,TestSidecar|TestUBGuard|TestAccumulatorParity|TestGuardedWeights,300s)
	$(call race-run,./internal/fault,TestFlip|TestParsePlanFlipKinds,300s)
	$(call race-run,./internal/runtime,TestDetectTier|TestCorrectTier|TestRepeatedSDC|TestScrubRepairsOffTierFlip|TestIntegrityTier,300s)
	$(call race-run,./internal/serve,TestCloseDrainsQueuedRequests,300s)
	$(call race-run,./internal/experiments,TestSDC,600s)

# Cluster smoke, race-enabled, each package once: the discrete-event core;
# all of internal/cluster — routing properties and the router against its
# eager oracle, golden snapshots and replay determinism, cross-host
# failover and the autoscaler ramp, the failure model (revive, partitions,
# zone kills, flapping and degraded hosts) with its retry-storm defenses
# and plan parser, the rollout controller (cordon, graceful drain and
# deadline failover, canary verdicts, waves, auto-rollback, chaos pause),
# and the telemetry contracts (zero-alloc when off, passive when on,
# registry = simulator books, concurrent scrape); then the three
# end-to-end campaigns with their determinism twins — the eight-host ramp
# with a mid-ramp kill, the zone kill at 75% load, and the bad-v2 / good-v2
# rollout.
cluster-smoke:
	$(GO) test -race -count=1 -timeout 300s ./internal/des ./internal/cluster
	$(call race-run,./internal/experiments,TestCluster|TestRollout,900s)

# Report smoke: build the CLIs, run tpuserve's default load sweep, the
# seeded acceptance-default cluster ramp, zone-kill campaign and rollout
# campaign, and diff the sweep, the saturation report and the three fleet
# campaigns' stdout against the pinned goldens — end-to-end proof that the
# binary, the experiment wiring and the analyzer produce the exact bytes the
# test suite pins. The zone-kill and rollout campaigns run their arms on
# goroutines of their own, so they are run a second time at GOMAXPROCS=1
# and diffed against the same goldens: the output must not depend on the
# thread count. Both runs of each also write -report-json, which must be
# non-empty and the same at both thread counts, and -trace-json with either
# mode must exit 2 before the campaign runs: neither records spans. The
# ramp's exported Chrome trace (~65 MB) is pinned by its sha256: every span,
# attribute and formatted value. tpubench regenerates the six apps on one
# goroutine, but its quantization study runs a functional device whose
# matrix kernel shards rows over GOMAXPROCS goroutines, and a fan-out
# brought back anywhere in the report would show here first: its report
# and its -csv output are each run at the default and at GOMAXPROCS=1 and
# the two must be byte-identical; -csv after its kernel line is diffed
# against its golden.
report-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; mkdir $$tmp/p1; \
	$(GO) build -o $$tmp/tpuserve ./cmd/tpuserve; \
	$(GO) build -o $$tmp/tpubench ./cmd/tpubench; \
	$$tmp/tpuserve > $$tmp/load_sweep.txt; \
	$$tmp/tpuserve -mode cluster -report $$tmp/cluster_saturation.txt -trace-json $$tmp/cluster_trace.json > $$tmp/cluster_campaign.txt; \
	sha256sum $$tmp/cluster_trace.json | cut -d' ' -f1 > $$tmp/cluster_trace.sha256; \
	$$tmp/tpuserve -mode cluster-chaos -report-json $$tmp/cluster_chaos_report.json > $$tmp/cluster_chaos_campaign.txt; \
	$$tmp/tpuserve -mode rollout -report-json $$tmp/rollout_report.json > $$tmp/rollout_campaign.txt; \
	GOMAXPROCS=1 $$tmp/tpuserve -mode cluster-chaos -report-json $$tmp/p1/cluster_chaos_report.json > $$tmp/p1/cluster_chaos_campaign.txt; \
	GOMAXPROCS=1 $$tmp/tpuserve -mode rollout -report-json $$tmp/p1/rollout_report.json > $$tmp/p1/rollout_campaign.txt; \
	$$tmp/tpubench -csv > $$tmp/tpubench_csv.txt; \
	tail -n +2 $$tmp/tpubench_csv.txt > $$tmp/csv.txt; \
	for f in load_sweep.txt cluster_campaign.txt cluster_saturation.txt cluster_trace.sha256 cluster_chaos_campaign.txt rollout_campaign.txt \
		p1/cluster_chaos_campaign.txt p1/rollout_campaign.txt csv.txt; do \
		diff -u internal/experiments/testdata/golden/$${f#p1/} $$tmp/$$f \
			&& echo "report-smoke: $$f matches golden" \
			|| { echo "report-smoke: $$f drifted from golden"; exit 1; }; \
	done; \
	for f in cluster_chaos_report.json rollout_report.json; do \
		[ -s $$tmp/$$f ] && [ -s $$tmp/p1/$$f ] || { echo "report-smoke: $$f is empty"; exit 1; }; \
		cmp -s $$tmp/$$f $$tmp/p1/$$f \
			&& echo "report-smoke: $$f same at GOMAXPROCS=1" \
			|| { echo "report-smoke: $$f depends on GOMAXPROCS"; exit 1; }; \
	done; \
	for m in cluster-chaos rollout; do \
		$$tmp/tpuserve -mode $$m -trace-json $$tmp/rejected.json 2>/dev/null; st=$$?; \
		[ $$st -eq 2 ] && echo "report-smoke: -mode $$m rejects -trace-json" \
			|| { echo "report-smoke: -mode $$m -trace-json exited $$st, want 2"; exit 1; }; \
	done; \
	$$tmp/tpubench > $$tmp/tpubench.txt; \
	GOMAXPROCS=1 $$tmp/tpubench > $$tmp/p1/tpubench.txt; \
	GOMAXPROCS=1 $$tmp/tpubench -csv > $$tmp/p1/tpubench_csv.txt; \
	for f in tpubench.txt tpubench_csv.txt; do \
		diff -u $$tmp/$$f $$tmp/p1/$$f \
			&& echo "report-smoke: $$f same at GOMAXPROCS=1" \
			|| { echo "report-smoke: $$f depends on GOMAXPROCS"; exit 1; }; \
	done

# Coverage floor: the tier-1 packages must keep at least 80% statement
# coverage (examples are exercised separately by their smoke test).
COVER_FLOOR ?= 80.0

cover:
	$(GO) test -short -count=1 -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }
	@rm -f cover.out
