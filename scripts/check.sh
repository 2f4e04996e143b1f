#!/usr/bin/env bash
# The full local gate: formatting, clippy (warnings promoted to
# errors), the workspace's own static-analysis passes, the test suite
# and the benchmark package's tests. CI and pre-merge runs should call
# exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> vqoe-analyze (ten passes: determinism / panic-path / constants / hygiene / bounded / clock / locks / floatord / clones / stale-allow)"
cargo run -q -p vqoe-analyze

echo "==> cargo test --workspace"
cargo test --workspace -q

# perfbench is its own package outside the workspace, so the workspace
# build never compiles it: this catches a vqoe-core API change that
# breaks the benchmark, and checks its metric table against
# BENCHMARK.json.
echo "==> cargo test perfbench"
cargo test --release -q --manifest-path perfbench/Cargo.toml

# Opt-in long soak: a high-fault chaos stream through the online
# assessor (see scripts/soak.sh), plus a trace-overhead smoke that
# enforces the < 2% tracing budget. Default runtime is unchanged.
if [[ "${VQOE_SOAK:-0}" == "1" ]]; then
  ./scripts/soak.sh
  echo "==> repro trace-overhead smoke (tracing budget < 2%)"
  cargo build --release -q -p vqoe-bench
  ./target/release/repro trace-overhead --smoke --bench-json BENCH_smoke_pr9.json >/dev/null
  grep -q '"bit_identical": true' BENCH_smoke_pr9.json
  grep -q '"trace_deterministic": true' BENCH_smoke_pr9.json
  overhead=$(sed -n 's/.*"overhead_pct": \(-\{0,1\}[0-9.]*\).*/\1/p' BENCH_smoke_pr9.json)
  awk -v o="$overhead" 'BEGIN {
    if (o >= 2.0) { printf "tracing overhead %.2f%% breaches the 2%% budget\n", o; exit 1 }
    printf "trace-overhead smoke: %.2f%% (< 2%% budget)\n", o
  }'
  rm -f BENCH_smoke_pr9.json

  echo "==> repro subscriber-scaling smoke (10k concurrent subscribers)"
  ./target/release/repro subscriber-scaling --smoke \
    --bench-json BENCH_smoke_pr10.json >/dev/null
  # Per-subscriber memory must stay a small constant: the 10k point has
  # to land in the same band the 100k-1M ladder reports.
  bps=$(sed -n 's/.*"bytes_per_subscriber": \([0-9]*\).*/\1/p' BENCH_smoke_pr10.json | head -1)
  if [[ -z "$bps" || "$bps" -gt 16384 ]]; then
    echo "subscriber-scaling smoke: bytes/subscriber '$bps' breaches the 16 KiB bound"
    exit 1
  fi
  echo "subscriber-scaling smoke: ${bps} bytes/subscriber (< 16 KiB bound)"
  rm -f BENCH_smoke_pr10.json
fi

echo "all gates passed"
