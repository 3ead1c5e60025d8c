#!/usr/bin/env bash
# Perf smoke: time the PLC spectrum hot path (uncached reference vs the
# epoch-keyed cache, out/BENCH_channel.json) and the MAC hot loop
# (reference vs zero-allocation stepper, out/BENCH_mac.json) — seed,
# wall clock per path, speedup, cache/idle-skip hit rates. Fast enough
# to run on every change. Each bench bin gates its own report and exits
# 1 on a failed invariant.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench_channel smoke (writes out/BENCH_channel.json) =="
# Tiny loops — the gate-relevant invariants (digest match, zero
# allocations) still hold; run without ELECTRIFI_BENCH_SMOKE=1 for
# gate-quality cold_rebuild_us timings.
cargo build --release -q -p electrifi-bench --bin bench_channel
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_channel

echo "== bench_mac smoke (writes out/BENCH_mac.json) =="
# Short windows — fast enough for every change. Run the binary without
# ELECTRIFI_BENCH_SMOKE=1 to also gate the timing ratios against the
# committed baselines.
cargo build --release -q -p electrifi-bench --bin bench_mac
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_mac

echo "== campaign smoke (writes out/smoke-campaign/) =="
cargo build --release -q -p electrifi-bench --bin campaign
./target/release/campaign scenarios/smoke-campaign.json --workers 2 --out out/smoke-campaign

echo "== checkpoint/resume smoke (interrupted == uninterrupted) =="
rm -rf out/smoke-ckpt
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --stop-after 1
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --resume out/smoke-ckpt
cmp out/smoke-campaign/summary.json out/smoke-ckpt/summary.json

echo "== bench_state (writes out/BENCH_state.json) =="
cargo build --release -q -p electrifi-bench --bin bench_state
./target/release/bench_state
