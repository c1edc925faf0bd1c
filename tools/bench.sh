#!/usr/bin/env bash
# tools/bench.sh — run the tracked benchmark set and emit BENCH_<tag>.json.
#
# Usage: tools/bench.sh [tag]            (default tag: local)
#
# Runs the key hot-path benchmarks at fixed iteration counts (so allocs/op
# is machine-independent and comparable across runs), converts the output
# to JSON via cmd/benchjson, and gates against the committed baseline
# BENCH_PR7.json (±10%): allocs/op for the agent step, the population
# tick, the gossip population tick, the cluster tick over loopback, the
# construction of the gossip population (the cold start sawd pays on
# create and resume) and the E9 experiment (its agents create their models
# in stores built outside any population), plus a steps/sec floor on the
# 10k-agent 4-worker tick (throughput must not silently erode, not just
# allocation count).
# CI calls this on every PR and uploads the JSON as an artifact; to refresh
# the committed baseline after an intentional change, merge the "after"
# numbers from the generated file into BENCH_PR7.json (keeping "before"
# for the trajectory).
set -euo pipefail
cd "$(dirname "$0")/.."

tag="${1:-local}"
baseline="BENCH_PR7.json"
if [ ! -f "$baseline" ]; then
  # Fail before the (minutes-long) benchmark run, not after: without the
  # committed baseline, cmd/benchjson would emit a BENCH_${tag}.json with
  # empty "before" columns that gates nothing and pollutes the trajectory.
  echo "bench.sh: committed baseline $baseline is missing — refusing to run." >&2
  echo "bench.sh: restore it from git (git checkout -- $baseline) or point this script at the new baseline file." >&2
  exit 1
fi
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# Micro-benchmarks: high fixed iteration counts, warm-up dominated away.
go test -run '^$' -bench \
  '^(BenchmarkAgentStepFullStack|BenchmarkAgentStepStimulusOnly|BenchmarkKnowledgeStoreObserve)$' \
  -benchmem -benchtime=20000x . | tee "$raw"

# Macro-benchmarks: small fixed iteration counts (each op is a full tick —
# in process or over loopback cluster workers — a population's
# construction, checkpoint round trip, checkpoint write or read, or an S1
# or E9 table build).
# CheckpointWrite and CheckpointRead are recorded, not gated.
go test -run '^$' -bench \
  '^(BenchmarkPopulationTick|BenchmarkPopulationTickGossip|BenchmarkPopulationNew|BenchmarkClusterTick|BenchmarkCheckpointRoundTrip|BenchmarkCheckpointWrite|BenchmarkCheckpointRead|BenchmarkS1PopulationScaling|BenchmarkE9Explanation)$' \
  -benchmem -benchtime=10x -timeout 30m . | tee -a "$raw"

go run ./cmd/benchjson \
  -out "BENCH_${tag}.json" \
  -baseline "$baseline" \
  -check AgentStepFullStack,PopulationTick,PopulationTickGossip,PopulationNew,ClusterTick,E9Explanation \
  -floor 'PopulationTick/agents=10000/workers=4:steps/sec' \
  -tolerance 0.10 \
  -note "tools/bench.sh ${tag}" < "$raw"
