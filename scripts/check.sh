#!/bin/sh
# Race-detection tier for the packages that carry production
# concurrency (the parallel execution layer and everything threaded
# through it, the metrics registry, the HTTP service with hot model
# reload, the continuous-batching decode engine, the checkpoint
# store, the request-trace ring, the fidelity drift monitor, and the
# workload spec/record layer), plus
# the end-to-end determinism and crash-recovery regression
# tests (REPRO_PROCS=1 vs 8, observability on/off, kill-and-resume),
# plus a pure-Go kernel tier (REPRO_NOASM under -race) and a
# short-budget fuzz tier over the untrusted decode surfaces.
# Run from the repository root: scripts/check.sh
set -eu

go vet ./...
go test -race ./internal/par ./internal/mat ./internal/nn ./internal/obs \
	./internal/server ./internal/core ./internal/ckpt ./internal/rng \
	./internal/rtrace ./internal/fidelity ./internal/workload
go test -race -run 'TestDeterminism|TestObservability|TestKillAndResume|TestBatchedFleet' .

# Sharded decode tier (DESIGN.md §6.3): the determinism and hot-reload
# guarantees must hold when the shards genuinely step on multiple cores,
# so force GOMAXPROCS=4 regardless of the host default.
# TestShardedMatchesDirect steps training shards concurrently, each
# repacking its recurrent weight panels into its own workspace.
GOMAXPROCS=4 go test -race \
	-run 'TestShardedDecodeDeterminism|TestShardedEngine|TestShardOf|TestFleetConcurrentShards|TestShardedMatchesDirect' \
	./internal/core ./internal/nn
GOMAXPROCS=4 go test -race -run 'TestHotReloadUnderLoad|TestMetricsShardGauges|TestShardedServerMatchesBatched' \
	./internal/server

# The kernel switches below are read once at package init, before the
# test cache starts recording environment reads, so a leg that differs
# from an earlier one only in its REPRO_* variables is served from the
# cache without running. The legs below pass -count=1, except the two
# package-wide -race legs: run uncached, internal/core alone takes over
# go test's 10-minute package timeout on a 2-CPU host (ROADMAP.md).

# Pure-Go kernel tier (DESIGN.md §6.4): REPRO_NOASM forces every
# assembly kernel onto its portable fallback, so the bit-identity
# contracts (f64 decode determinism, f32 cross-engine identity, GEMM
# and activation parity) are proven on the exact code non-amd64 hosts
# run — under -race, which the assembly paths cannot be.
REPRO_NOASM=1 go test -race ./internal/mat ./internal/nn ./internal/core

# Golden training pin: the trained-weight and generated-trace digests
# are fixed constants, so they must come out the same on every kernel
# configuration — portable kernels, one worker, and (below) unpacked.
REPRO_NOASM=1 go test -count=1 -run 'TestTrainModelGoldenDigest' ./internal/core
REPRO_PROCS=1 go test -count=1 -run 'TestTrainModelGoldenDigest' ./internal/core

# Packed-panel parity tier (DESIGN.md §6.5): REPRO_NOPACK drops every
# decode fleet, forward GEMM and training-window recurrent product
# back to the unpacked kernels; the same byte-identity suites must
# pass, proving the kill-switch cannot change a trace. The -race leg
# also races the packed kernels (epilogue closures run inside
# concurrently stepped per-shard fleets), and the combined NOASM+NOPACK
# leg pins the fully-portable, fully-unpacked floor every other
# configuration is measured against.
REPRO_NOPACK=1 go test -race ./internal/mat ./internal/nn ./internal/core
REPRO_NOPACK=1 go test -count=1 -run 'TestTrainModelGoldenDigest' ./internal/core
REPRO_NOPACK=1 REPRO_NOASM=1 go test -count=1 \
	-run 'TestShardedDecodeDeterminism|TestPrecisionRegistryMatrix|TestPackedDecode|TestBatchedFleet|TestTrainModelGoldenDigest' \
	./internal/core .
REPRO_NOPACK=1 go test -count=1 -run 'TestHotReloadRepacksPanels' ./internal/server

# Memory-discipline pins: the per-shard round path, the fleet step
# kernel, the training Forward/Backward pass and sharded BPTT window
# (recurrent weight panels included), and the par Snapshot poll must
# stay allocation-free in steady state, and the Table4 survival-MSE
# sweep must hold its pooled-curve allocation budget (AllocsPerRun pins
# run without -race; the race runtime's instrumentation allocates).
go test -run 'TestShardedRoundSteadyStateAllocs|TestTracingDisabledRoundAllocs' ./internal/core
go test -run 'TestFleetStepAllocFree|TestFleetPackedStepAllocFree|TestForwardBackwardSteadyStateAllocs|TestShardedRunWindowSteadyStateAllocs' ./internal/nn
go test -run 'TestSnapshotZeroAlloc' ./internal/par
go test -run 'TestTable4SurvivalAllocs' ./internal/experiments

# Short-budget fuzz tier: each target gets a few seconds of coverage-
# guided input on top of its checked-in seed corpus. Skipped cleanly on
# toolchains without native fuzzing support.
if go help testflag 2>/dev/null | grep -q -- '-fuzz '; then
	go test -run '^$' -fuzz 'FuzzSnapshotDecode$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz 'FuzzSnapshotDecodeF32$' -fuzztime 10s ./internal/core
	go test -run '^$' -fuzz FuzzGenerateRequest -fuzztime 10s ./internal/server
	go test -run '^$' -fuzz FuzzMulAddPacked -fuzztime 10s ./internal/mat
	go test -run '^$' -fuzz 'FuzzWorkloadSpec$' -fuzztime 10s ./internal/workload
	go test -run '^$' -fuzz 'FuzzTraceReplay$' -fuzztime 10s ./internal/workload
else
	echo "check.sh: go toolchain lacks -fuzz; skipping fuzz tier"
fi

echo "check.sh: vet + race + noasm + nopack + determinism + sharded + alloc pins + resume + fuzz OK"
