#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite. Everything runs
# offline — the workspace vendors its few dependencies under vendor/, so
# no crates-io registry access is needed (and none is attempted).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test =="
cargo test -q --workspace

echo "== campaign smoke (2 runs, telemetry + tracing on) =="
cargo build --release -q -p electrifi-bench --bin campaign
./target/release/campaign scenarios/smoke-campaign.json --dry-run
# Fresh output dir: the follow stream appends (so a resumed campaign
# keeps its history), which would otherwise accumulate across gate runs.
rm -rf out/smoke-campaign
./target/release/campaign scenarios/smoke-campaign.json --workers 2 \
    --out out/smoke-campaign \
    --progress out/smoke-campaign/progress.json --progress-every 0.05 \
    --follow out/smoke-campaign/follow.jsonl \
    --trace out/smoke-campaign/trace.json
# The heartbeat must end fully accounted and the follow stream must
# carry one parseable line per run.
python3 - <<'PY'
import json
p = json.load(open("out/smoke-campaign/progress.json"))
assert p["finished"], f"progress not finished: {p}"
assert p["runs_done"] == p["runs_total"] > 0, f"inconsistent progress: {p}"
assert p["runs_failed"] == 0, f"failed runs in smoke campaign: {p}"
lines = [json.loads(l) for l in open("out/smoke-campaign/follow.jsonl")]
assert len(lines) == p["runs_total"], \
    f"{len(lines)} follow lines for {p['runs_total']} runs"
assert sorted(c["index"] for c in lines) == list(range(p["runs_total"]))
print(f"progress.json consistent: {p['runs_done']}/{p['runs_total']} runs, "
      f"{p['heartbeats']} heartbeats; follow.jsonl: {len(lines)} lines")
PY

echo "== checkpoint/resume smoke (interrupted == uninterrupted) =="
# Stop the same campaign after one run, resume it, and require the
# resumed summary.json to be byte-identical to the straight-through one
# — which, since the straight-through run had telemetry and tracing on
# and this one has them off, also proves observability is bit-inert.
rm -rf out/smoke-ckpt
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --stop-after 1
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/smoke-ckpt --resume out/smoke-ckpt
cmp out/smoke-campaign/summary.json out/smoke-ckpt/summary.json

echo "== trace smoke (fig16 Chrome trace: valid JSON, spans nest) =="
cargo build --release -q -p electrifi-bench --bin fig16
ELECTRIFI_SCALE=quick ELECTRIFI_TRACE=out/trace-smoke.json \
    ./target/release/fig16 > /dev/null
python3 - <<'PY'
import json
doc = json.load(open("out/trace-smoke.json"))
events = doc["traceEvents"]
assert events, "trace is empty"
stacks = {}
for ev in events:
    assert ev["ph"] in ("B", "E"), f"unexpected phase: {ev}"
    assert ev["ts"] >= 0 and ev["pid"] == 1
    stack = stacks.setdefault(ev["tid"], [])
    if ev["ph"] == "B":
        stack.append(ev["name"])
    else:
        assert stack, f"E without matching B on tid {ev['tid']}: {ev}"
        top = stack.pop()
        assert top == ev["name"], \
            f"mis-nested span: E {ev['name']} closes B {top}"
for tid, stack in stacks.items():
    assert not stack, f"unclosed spans on tid {tid}: {stack}"
names = {e["name"] for e in events}
print(f"trace OK: {len(events)} events, {len(stacks)} thread(s), "
      f"{len(names)} distinct spans, all properly nested")
# Tracing also fills the manifest's profile section.
m = json.load(open("out/fig16.manifest.json"))
assert m["profile"] is not None and m["profile"]["spans"], \
    "traced run must carry a profile in its manifest"
PY

echo "== replay smoke (snapshot -> resume -> event-stream diff) =="
cargo build --release -q -p electrifi-bench --bin replay
./target/release/replay selftest --out out/replay-smoke

echo "== serve smoke (control plane: submit -> poll -> fetch == CLI bytes) =="
cargo build --release -q -p electrifi-bench --bin serve --bin servectl
SERVE_SOCK="out/serve-smoke/ctl.sock"
rm -rf out/serve-smoke
./target/release/serve --unix "$SERVE_SOCK" --out out/serve-smoke \
    --scenario-root . --workers 2 --shard-size 1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] || { echo "serve did not come up"; exit 1; }
SUBMIT=$(./target/release/servectl --unix "$SERVE_SOCK" submit scenarios/smoke-campaign.json)
echo "$SUBMIT"
JOB=$(python3 -c "import json,sys; print(json.loads(sys.argv[1])['id'])" "$SUBMIT")
./target/release/servectl --unix "$SERVE_SOCK" wait "$JOB" --timeout 300 > /dev/null
./target/release/servectl --unix "$SERVE_SOCK" results "$JOB" > out/serve-smoke/served-summary.json
# The control plane's summary must be byte-identical to the CLI's for
# the very same campaign file (written by the campaign smoke above).
cmp out/smoke-campaign/summary.json out/serve-smoke/served-summary.json
./target/release/servectl --unix "$SERVE_SOCK" events "$JOB" --limit 5 > /dev/null
./target/release/servectl --unix "$SERVE_SOCK" shutdown > /dev/null
wait "$SERVE_PID"
trap - EXIT

echo "== serve killed-worker smoke (death -> resume -> identical bytes) =="
# Arm the one-shot injected worker death on the second run; the shard is
# re-admitted, resumed from its checkpoint, and the summary must still
# match the CLI byte-for-byte.
KILL_RUN=$(./target/release/campaign scenarios/smoke-campaign.json --list | sed -n 2p)
rm -rf out/serve-kill
ELECTRIFI_SERVE_KILL_RUN="$KILL_RUN" ./target/release/serve \
    --unix out/serve-kill/ctl.sock --out out/serve-kill \
    --scenario-root . --workers 2 --shard-size 1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do [ -S out/serve-kill/ctl.sock ] && break; sleep 0.1; done
SUBMIT=$(./target/release/servectl --unix out/serve-kill/ctl.sock submit scenarios/smoke-campaign.json)
JOB=$(python3 -c "import json,sys; print(json.loads(sys.argv[1])['id'])" "$SUBMIT")
./target/release/servectl --unix out/serve-kill/ctl.sock wait "$JOB" --timeout 300 > /dev/null
./target/release/servectl --unix out/serve-kill/ctl.sock results "$JOB" > out/serve-kill/served-summary.json
cmp out/smoke-campaign/summary.json out/serve-kill/served-summary.json
./target/release/servectl --unix out/serve-kill/ctl.sock metrics > out/serve-kill/metrics.json
python3 - <<'PY'
import json
m = json.load(open("out/serve-kill/metrics.json"))
c = dict((k, v) for k, v in m["counters"])
assert c.get("serve.workers.deaths", 0) >= 1, f"injected death not recorded: {c}"
assert c.get("serve.workers.shards_requeued", 0) >= 1, f"no shard requeued: {c}"
assert c.get("serve.queue.completed", 0) == 1, f"job did not complete: {c}"
print(f"killed-worker recovery OK: {c['serve.workers.deaths']} death(s), "
      f"{c['serve.workers.shards_requeued']} shard(s) requeued, "
      f"{c.get('serve.workers.runs_resumed', 0)} run(s) resumed from checkpoint")
PY
./target/release/servectl --unix out/serve-kill/ctl.sock shutdown > /dev/null
wait "$SERVE_PID"
trap - EXIT

echo "== campaign exit codes (usage=2, io=3) =="
set +e
./target/release/campaign --workers 0 scenarios/smoke-campaign.json 2>/dev/null; RC_USAGE=$?
./target/release/campaign no-such-campaign.json 2>/dev/null; RC_IO=$?
./target/release/campaign --help > /dev/null; RC_HELP=$?
set -e
[ "$RC_USAGE" -eq 2 ] || { echo "--workers 0 must exit 2, got $RC_USAGE"; exit 1; }
[ "$RC_IO" -eq 3 ] || { echo "missing campaign file must exit 3, got $RC_IO"; exit 1; }
[ "$RC_HELP" -eq 0 ] || { echo "--help must exit 0, got $RC_HELP"; exit 1; }
echo "exit codes OK: usage=2 io=3 help=0"

echo "== disturbance gate smoke (verdict pass=0, fail fixture=5, serve verdict) =="
# A gated campaign that holds its assertions exits 0 and writes a typed
# verdict block per run; the deliberately failing fixture still writes
# its summary (the run *succeeded* — the invariant did not) and exits 5.
rm -rf out/disturbance-gate out/disturbance-fail
./target/release/campaign scenarios/disturbance-campaign.json --workers 2 \
    --out out/disturbance-gate
python3 - <<'PY'
import json
s = json.load(open("out/disturbance-gate/summary.json"))
runs = [r for r in s["runs"] if r.get("verdict")]
assert runs, "no run carried a verdict block"
for r in runs:
    v = r["verdict"]
    assert v["pass"], f"verdict failed in passing campaign: {v}"
    assert v["assertions"], "verdict carries no assertions"
    assert all(a["pass"] for a in v["assertions"])
print(f"verdict OK: {len(runs)} gated run(s), "
      f"{sum(len(r['verdict']['assertions']) for r in runs)} assertion(s) held")
PY
set +e
./target/release/campaign scenarios/disturbance-fail-campaign.json \
    --out out/disturbance-fail 2>/dev/null; RC_ASSERT=$?
set -e
[ "$RC_ASSERT" -eq 5 ] || { echo "failing fixture must exit 5, got $RC_ASSERT"; exit 1; }
python3 - <<'PY'
import json
s = json.load(open("out/disturbance-fail/summary.json"))
v = s["runs"][0]["verdict"]
assert v is not None and not v["pass"], f"fail fixture must carry a failing verdict: {v}"
print("fail fixture OK: exit 5 with summary.json intact and verdict.pass=false")
PY
# The control plane surfaces the same rollup: job status carries
# verdict/pass and `servectl verdict` prints the per-assertion table.
rm -rf out/serve-verdict
# The campaign file names its scenario by sibling path, so the server
# resolves against scenarios/ (the CLI resolves against the campaign
# file's own directory).
./target/release/serve --unix out/serve-verdict/ctl.sock --out out/serve-verdict \
    --scenario-root scenarios --workers 2 --shard-size 1 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 50); do [ -S out/serve-verdict/ctl.sock ] && break; sleep 0.1; done
SUBMIT=$(./target/release/servectl --unix out/serve-verdict/ctl.sock submit scenarios/disturbance-campaign.json)
JOB=$(python3 -c "import json,sys; print(json.loads(sys.argv[1])['id'])" "$SUBMIT")
./target/release/servectl --unix out/serve-verdict/ctl.sock wait "$JOB" --timeout 300 > /dev/null
STATUS=$(./target/release/servectl --unix out/serve-verdict/ctl.sock status "$JOB")
python3 -c "import json,sys; d = json.loads(sys.argv[1]); \
    assert d.get('verdict') == 'pass' and d.get('verdict_failures') == 0, d" "$STATUS"
./target/release/servectl --unix out/serve-verdict/ctl.sock verdict "$JOB"
./target/release/servectl --unix out/serve-verdict/ctl.sock shutdown > /dev/null
wait "$SERVE_PID"
trap - EXIT
echo "disturbance gate OK: pass campaign=0, fail fixture=5, serve verdict surfaced"

echo "== bench smoke gates (correctness invariants only) =="
# Tiny windows: exercises the zero-alloc MAC loop, the zero-alloc PHY
# spectrum hot path, and the bit-identity digests on every change. Each
# bin gates its own report and exits 1 on a failure; timing ratios are
# only gated by a full (un-smoked) run of the same bins.
cargo build --release -q -p electrifi-bench --bin bench_mac --bin bench_channel
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_mac
ELECTRIFI_BENCH_SMOKE=1 ./target/release/bench_channel

echo "== e2ebench pinned digests (paper-quick, seed 2015) =="
# The end-to-end benchmark checks every runner's serialized output
# against the digests pinned in e2ebench/src/pins.rs and exits nonzero
# on any mismatch, so a runner that stops being bit-identical fails here.
cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
    --workload paper-quick --seed 2015 --seconds 1 --trace 0 > /dev/null
echo "pinned runner digests OK"

echo "All checks passed."
