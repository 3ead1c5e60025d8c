#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite. Everything runs
# offline — the workspace vendors its few dependencies under vendor/, so
# no crates-io registry access is needed (and none is attempted).
# Needs only cargo and a POSIX shell (run under bash): every artifact is
# read back by the `report` bin, never by another interpreter.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every file the gate writes is either under an ignored path or
# compared and thrown away, so inside a git checkout the working tree
# must look the same at the end as it did at the start.
IN_GIT=0
STATUS_BEFORE=""
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    IN_GIT=1
    STATUS_BEFORE=$(git status --porcelain)
fi

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
    --progress out/smoke-campaign/progress.json \
    --follow out/smoke-campaign/follow.jsonl \
    --trace out/smoke-campaign/trace.json
# Every telemetry file is written, with one follow line per run. What
# they contain is pinned by scenario/tests/telemetry.rs.
for f in summary.json progress.json follow.jsonl trace.json; do
    [ -s "out/smoke-campaign/$f" ] || { echo "campaign smoke wrote no $f"; exit 1; }
done
RUNS=$(./target/release/campaign scenarios/smoke-campaign.json --list | wc -l)
FOLLOW=$(wc -l < out/smoke-campaign/follow.jsonl)
[ "$FOLLOW" -eq "$RUNS" ] || { echo "follow.jsonl has $FOLLOW lines for $RUNS runs"; exit 1; }

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

echo "== committed text dumps (table3, fig09, fig17, fig18 at Paper scale) =="
cargo build --release -q -p electrifi-bench --bin paper
./target/release/paper table3 | cmp - out/table3.txt
./target/release/paper fig09 | cmp - out/fig09.txt
# fig17 and fig18 run the channel, the estimator and LinkProbeSim at
# Paper scale (~10 s together).
ELECTRIFI_SCALE=paper ./target/release/paper fig17 | cmp - out/fig17.txt
ELECTRIFI_SCALE=paper ./target/release/paper fig18 | cmp - out/fig18.txt

echo "== trace smoke (fig16 writes its Chrome trace) =="
# Span nesting is pinned by simnet's span tests, and the manifest's
# profile by bench/tests/observability.rs; `report` reads the profile.
ELECTRIFI_SCALE=quick ELECTRIFI_TRACE=out/trace-smoke.json \
    ./target/release/paper fig16 > /dev/null
[ -s out/trace-smoke.json ] || { echo "traced fig16 wrote no trace"; exit 1; }

echo "== serve smoke (control plane: submit -> poll -> fetch == CLI bytes) =="
# The id from `servectl submit`'s admission doc, `{"id":"cN",...}`.
job_id() { printf '%s\n' "$1" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'; }
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
JOB=$(job_id "$SUBMIT")
./target/release/servectl --unix "$SERVE_SOCK" wait "$JOB" --timeout 300 > /dev/null
./target/release/servectl --unix "$SERVE_SOCK" results "$JOB" > out/serve-smoke/served-summary.json
# The control plane's summary must be byte-identical to the CLI's for
# the very same campaign file (written by the campaign smoke above).
cmp out/smoke-campaign/summary.json out/serve-smoke/served-summary.json
./target/release/servectl --unix "$SERVE_SOCK" events "$JOB" --limit 5 > /dev/null
# The death and completion counters are pinned by the served rows of
# serve/tests/invariance.rs.
./target/release/servectl --unix "$SERVE_SOCK" metrics > /dev/null
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
JOB=$(job_id "$SUBMIT")
./target/release/servectl --unix out/serve-kill/ctl.sock wait "$JOB" --timeout 300 > /dev/null
./target/release/servectl --unix out/serve-kill/ctl.sock results "$JOB" > out/serve-kill/served-summary.json
cmp out/smoke-campaign/summary.json out/serve-kill/served-summary.json
./target/release/servectl --unix out/serve-kill/ctl.sock shutdown > /dev/null
wait "$SERVE_PID"
trap - EXIT

echo "== exit codes (usage=2, io=3, damaged checkpoint=4) =="
# A start hour past the simulated clock must fail validation, not
# overflow the clock once the run starts.
mkdir -p out/range-check
cat > out/range-check/campaign.json <<'JSON'
{"name": "range-check", "scenarios": ["builtin://imc2015-floor"],
 "workloads": [{"name": "far", "start_hour": 6000000, "duration_s": 5, "sample_ms": 500}]}
JSON
# Run names become file names, so a workload name that is not one must
# fail validation before any run executes.
cat > out/range-check/bad-name.json <<'JSON'
{"name": "bad-name", "scenarios": ["builtin://imc2015-floor"],
 "workloads": [{"name": "a/b\"c", "duration_s": 5, "sample_ms": 500}]}
JSON
set +e
./target/release/campaign --workers 0 scenarios/smoke-campaign.json 2>/dev/null; RC_USAGE=$?
./target/release/campaign out/range-check/campaign.json --dry-run 2>/dev/null; RC_RANGE=$?
./target/release/campaign out/range-check/bad-name.json --dry-run 2>/dev/null; RC_NAME=$?
./target/release/campaign no-such-campaign.json 2>/dev/null; RC_IO=$?
./target/release/campaign --help > /dev/null; RC_HELP=$?
./target/release/paper 2>/dev/null; RC_PAPER_NONE=$?
./target/release/paper fig99 2>/dev/null; RC_PAPER_UNKNOWN=$?
# A checkpoint cut to half its bytes is damaged data, not a failing disk.
rm -rf out/damaged-ckpt
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/damaged-ckpt --stop-after 1 > /dev/null
CKPT=out/damaged-ckpt/checkpoint.efistate
head -c $(( $(wc -c < "$CKPT") / 2 )) "$CKPT" > "$CKPT.half" && mv "$CKPT.half" "$CKPT"
./target/release/campaign scenarios/smoke-campaign.json --workers 1 \
    --out out/damaged-ckpt --resume out/damaged-ckpt 2>/dev/null; RC_DAMAGED=$?
ELECTRIFI_TRACE=out/trace-sample.json ELECTRIFI_TRACE_SAMPLE=abc \
    ./target/release/paper table3 > /dev/null 2>&1; RC_SAMPLE=$?
set -e
[ "$RC_USAGE" -eq 2 ] || { echo "--workers 0 must exit 2, got $RC_USAGE"; exit 1; }
[ "$RC_RANGE" -eq 2 ] || { echo "out-of-range start_hour must exit 2, got $RC_RANGE"; exit 1; }
[ "$RC_NAME" -eq 2 ] || { echo "a workload name that is not a file name must exit 2, got $RC_NAME"; exit 1; }
[ "$RC_IO" -eq 3 ] || { echo "missing campaign file must exit 3, got $RC_IO"; exit 1; }
[ "$RC_HELP" -eq 0 ] || { echo "--help must exit 0, got $RC_HELP"; exit 1; }
[ "$RC_PAPER_NONE" -eq 2 ] || { echo "paper without a name must exit 2, got $RC_PAPER_NONE"; exit 1; }
[ "$RC_PAPER_UNKNOWN" -eq 2 ] || { echo "paper fig99 must exit 2, got $RC_PAPER_UNKNOWN"; exit 1; }
[ "$RC_SAMPLE" -eq 2 ] || { echo "malformed ELECTRIFI_TRACE_SAMPLE must exit 2, got $RC_SAMPLE"; exit 1; }
[ "$RC_DAMAGED" -eq 4 ] || { echo "resuming a truncated checkpoint must exit 4, got $RC_DAMAGED"; exit 1; }
echo "exit codes OK: usage=2 out-of-range=2 bad-name=2 io=3 help=0 paper-usage=2 trace-sample=2 damaged-checkpoint=4"

echo "== disturbance gate smoke (verdict pass=0, fail fixture=5, serve verdict) =="
# A gated campaign that holds its assertions exits 0 and writes a typed
# verdict block per run; the deliberately failing fixture still writes
# its summary (the run *succeeded* — the invariant did not) and exits 5.
rm -rf out/disturbance-gate out/disturbance-fail
# The verdicts themselves are pinned by bench/tests/campaign_gate.rs.
./target/release/campaign scenarios/disturbance-campaign.json --workers 2 \
    --out out/disturbance-gate
set +e
./target/release/campaign scenarios/disturbance-fail-campaign.json \
    --out out/disturbance-fail 2>/dev/null; RC_ASSERT=$?
set -e
[ "$RC_ASSERT" -eq 5 ] || { echo "failing fixture must exit 5, got $RC_ASSERT"; exit 1; }
[ -s out/disturbance-fail/summary.json ] || { echo "failing fixture wrote no summary.json"; exit 1; }
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
JOB=$(job_id "$SUBMIT")
# The status document's verdict rollup is pinned by serve/tests/serve_e2e.rs.
./target/release/servectl --unix out/serve-verdict/ctl.sock wait "$JOB" --timeout 300 > /dev/null
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

echo "== examples (each runs to completion in release) =="
# The examples are the only callers of some library paths (the JSONL
# sink), so they run here, not just compile.
cargo build --release -q -p electrifi --examples
for ex in quickstart blind_spot hybrid_streaming probing_planner obs_jsonl; do
    ./target/release/examples/"$ex" > /dev/null 2>&1 || { echo "example $ex failed"; exit 1; }
done
echo "examples OK"

echo "== e2ebench pinned digests (paper-quick and campaign-sweep, seeds 2015 and 1) =="
# The end-to-end benchmark checks every runner's serialized output and
# the campaign's summary.json against the digests pinned in
# e2ebench/src/pins.rs for seed 2015 and the held-out seed 1, and exits
# nonzero on any mismatch, so an output that stops being bit-identical
# fails here. `--locked` fails the step if a dependency change would
# rewrite e2ebench/Cargo.lock, instead of letting cargo update it silently.
e2ebench_pinned() {
    cargo run --release --offline --locked --quiet --manifest-path e2ebench/Cargo.toml -- \
        --workload "$1" --seed "$2" --seconds 1 --trace 0 > /dev/null
    echo "pinned digests OK: $1, seed $2"
}
e2ebench_pinned paper-quick 2015
e2ebench_pinned campaign-sweep 2015
e2ebench_pinned paper-quick 1

echo "== report (every artifact under out/ read back through its type) =="
cargo build --release -q -p electrifi-bench --bin report
./target/release/report || { echo "report found unreadable artifacts"; exit 1; }

echo "== working tree untouched by the gate =="
if [ "$IN_GIT" -eq 1 ]; then
    STATUS_AFTER=$(git status --porcelain)
    if [ "$STATUS_AFTER" != "$STATUS_BEFORE" ]; then
        echo "check.sh changed the git working tree; status before:"
        printf '%s\n' "$STATUS_BEFORE"
        echo "status after:"
        printf '%s\n' "$STATUS_AFTER"
        exit 1
    fi
    echo "git status unchanged"
else
    echo "not a git checkout; skipped"
fi

echo "All checks passed."
