#!/usr/bin/env bash
# Helper: summarize run manifests (out/*.manifest.json) and print the
# headline numbers from out/*.txt for EXPERIMENTS.md.
set -e
cd "$(dirname "$0")/.."

# --- run manifests -----------------------------------------------------
# Every `paper <name>` run writes out/<name>.manifest.json (seed, config
# digest, scale, wall clock, events fired, metrics snapshot).
# One line per run: enough to spot a slow or misconfigured run at a
# glance.
if compgen -G "out/*.manifest.json" > /dev/null; then
  echo "== manifests =="
  python3 - <<'PY'
import glob, json

for path in sorted(glob.glob("out/*.manifest.json")):
    try:
        with open(path) as f:
            m = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{path}: unreadable ({e})")
        continue
    wall = m.get("wall_clock_s", 0.0)
    events = m.get("events_fired", 0)
    eps = events / wall if wall > 0 else 0.0
    counters = m.get("metrics", {}).get("counters", [])
    top = ", ".join(
        f"{name}={value}"
        for name, value in sorted(counters, key=lambda kv: -kv[1])[:3]
    )
    # Checkpoint bookkeeping (state.checkpoint.writes/bytes/resume_loads)
    # is worth calling out whenever a run used snapshots at all.
    ckpt = ", ".join(
        f"{name.split('.')[-1]}={value}"
        for name, value in sorted(counters)
        if name.startswith("state.checkpoint.") and value
    )
    print(
        f"{m.get('name', '?'):>10}  seed={m.get('seed', '?')}"
        f"  scale={m.get('scale', '?'):>5}"
        f"  wall={wall:6.1f}s  events={events}  ({eps:,.0f} ev/s)"
        + (f"  top: {top}" if top else "")
        + (f"  checkpoint: {ckpt}" if ckpt else "")
    )
    # Runs executed with ELECTRIFI_TRACE/ELECTRIFI_PROFILE carry a span
    # profile; untraced runs have profile = null.
    prof = m.get("profile")
    if prof and prof.get("spans"):
        print(f"{'':>12}{'top spans by self-time':<26}{'count':>9}"
              f"{'self_ms':>10}{'total_ms':>10}"
              f"{'p50_us':>9}{'p90_us':>9}{'p99_us':>9}")
        for s in prof["spans"][:8]:
            print(f"{'':>12}{s['name']:<26}{s['count']:>9}"
                  f"{s['self_ns'] / 1e6:>10.2f}{s['total_ns'] / 1e6:>10.2f}"
                  f"{s['p50_ns'] / 1e3:>9.1f}{s['p90_ns'] / 1e3:>9.1f}"
                  f"{s['p99_ns'] / 1e3:>9.1f}")
PY
else
  echo "== manifests ==  (none found under out/)"
fi

# --- campaign summaries ------------------------------------------------
# The campaign runner writes out/<campaign>/summary.json plus one
# <run>.manifest.json per run (see `campaign --help`). One line per run
# plus the campaign-level totals.
if compgen -G "out/*/summary.json" > /dev/null; then
  echo "== campaigns =="
  python3 - <<'PY'
import glob, json

for path in sorted(glob.glob("out/*/summary.json")):
    try:
        with open(path) as f:
            s = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{path}: unreadable ({e})")
        continue
    print(f"{s.get('campaign', '?')}: {len(s.get('runs', []))} run(s)"
          f"  digest={s.get('config_digest', '?')}")
    for run in s.get("runs", []):
        heads = "  ".join(
            f"{e['kind']}.{k}={v:.3g}"
            for e in run.get("experiments", [])
            for k, v in e.get("headline", [])[:2]
        )
        print(f"  {run.get('run', '?'):32} stations={run.get('stations', '?'):>3}"
              f"  plc_links={run.get('plc_links', '?'):>4}  {heads}")
    totals = ", ".join(f"{k}={v:.3g}" for k, v in s.get("totals", [])[:6])
    if totals:
        print(f"  totals: {totals}")
PY
else
  echo "== campaigns ==  (none found under out/*/)"
fi

# --- disturbance verdicts ----------------------------------------------
# Gated campaigns (experiments: ["disturbance"]) carry a typed verdict
# block per run: one pass/fail line per declared assertion plus the
# worst observed recovery time. Aggregate across every summary under
# out/: a table of per-assertion-kind pass counts and recovery stats.
if compgen -G "out/*/summary.json" > /dev/null; then
  python3 - <<'PY'
import glob, json

kinds = {}   # kind -> [passed, total]
recov = []   # per-run worst recovery, seconds
runs = fails = 0
for path in sorted(glob.glob("out/*/summary.json")):
    try:
        with open(path) as f:
            s = json.load(f)
    except (OSError, ValueError):
        continue
    for run in s.get("runs", []):
        v = run.get("verdict")
        if not v:
            continue
        runs += 1
        if not v.get("pass"):
            fails += 1
        for a in v.get("assertions", []):
            k = kinds.setdefault(a["kind"], [0, 0])
            k[0] += 1 if a["pass"] else 0
            k[1] += 1
        if v.get("max_recovery_s") is not None:
            recov.append(v["max_recovery_s"])
if runs:
    print("== disturbance verdicts ==")
    print(f"{runs} gated run(s), {runs - fails} passed, {fails} failed")
    print(f"  {'assertion':<28}{'passed':>8}{'total':>7}")
    for kind in sorted(kinds):
        p, t = kinds[kind]
        flag = "" if p == t else "   <-- FAILING"
        print(f"  {kind:<28}{p:>8}{t:>7}{flag}")
    if recov:
        recov.sort()
        print(f"  recovery: worst={recov[-1]:.3f}s"
              f"  median={recov[len(recov) // 2]:.3f}s"
              f"  over {len(recov)} run(s)")
PY
fi

# --- serve control plane -----------------------------------------------
# The serve binary periodically (and on shutdown) writes
# out/<dir>/server.metrics.json in the standard MetricsSnapshot shape:
# queue admission/completion counters, stream backpressure drops, and
# worker lifecycle (deaths, shards requeued, runs resumed from
# checkpoint).
if compgen -G "out/**/server.metrics.json" > /dev/null || compgen -G "out/*/server.metrics.json" > /dev/null; then
  echo "== serve control plane =="
  python3 - <<'PY'
import glob, json

for path in sorted(set(glob.glob("out/*/server.metrics.json")
                       + glob.glob("out/**/server.metrics.json", recursive=True))):
    try:
        with open(path) as f:
            m = json.load(f)
    except (OSError, ValueError) as e:
        print(f"{path}: unreadable ({e})")
        continue
    c = dict(m.get("counters", []))
    g = dict(m.get("gauges", []))
    print(f"{path}:")
    print(f"  queue: submitted={c.get('serve.queue.submitted', 0)}"
          f"  completed={c.get('serve.queue.completed', 0)}"
          f"  failed={c.get('serve.queue.failed', 0)}"
          f"  cancelled={c.get('serve.queue.cancelled', 0)}"
          f"  rejected_full={c.get('serve.queue.rejected_full', 0)}"
          f"  depth={g.get('serve.queue.depth', 0):.0f}")
    print(f"  stream: events={c.get('serve.stream.events', 0)}"
          f"  subscribers={c.get('serve.stream.subscribers', 0)}"
          f"  dropped={c.get('serve.stream.dropped', 0)}")
    print(f"  workers: spawned={c.get('serve.workers.spawned', 0)}"
          f"  deaths={c.get('serve.workers.deaths', 0)}"
          f"  shards_requeued={c.get('serve.workers.shards_requeued', 0)}"
          f"  runs_executed={c.get('serve.workers.runs_executed', 0)}"
          f"  runs_resumed={c.get('serve.workers.runs_resumed', 0)}")
PY
else
  echo "== serve control plane ==  (no server.metrics.json under out/)"
fi

# --- perf benchmarks ---------------------------------------------------
# bench_mac writes out/BENCH_mac.json: reference vs optimized MAC
# stepper (steps/s, heap allocations per steady-state window, digest
# agreement) plus the idle-skip hit rate. The plc.mac.idle_skips /
# scratch_reuses / allocs_saved counters also land in every run
# manifest's metrics snapshot, so long-running reproductions report the
# same numbers per run above.
if [ -f out/BENCH_mac.json ]; then
  echo "== bench_mac =="
  python3 - <<'PY'
import json

with open("out/BENCH_mac.json") as f:
    b = json.load(f)
smoke = "  (SMOKE run: timings not meaningful)" if b.get("smoke") else ""
print(f"seed={b.get('seed', '?')}  reps={b.get('reps', '?')}{smoke}")
for name in ("mac_loop", "saturated", "full_profile"):
    s = b.get(name)
    if not s:
        continue
    opt, ref = s["optimized"], s["reference"]
    print(
        f"{name:>14}: {s['speedup']:.2f}x"
        f"  ({ref['steps_per_sec']:,.0f} -> {opt['steps_per_sec']:,.0f} steps/s)"
        f"  allocs/window {ref['allocs_in_window']} -> {opt['allocs_in_window']}"
        f"  digest_match={s['digest_match']}"
    )
idle = b.get("idle")
if idle:
    print(
        f"{'idle':>14}: hit rate {idle['hit_rate']:.2f}"
        f"  ({idle['idle_skips']} skips / {idle['idle_rescans']} rescans)"
        f"  digest_match={idle['digest_match']}"
    )
so = b.get("span_overhead")
if so:
    print(
        f"{'spans':>14}: enabled/disabled ratio {so['ratio']:.3f}"
        f"  ({so['disabled_steps_per_sec']:,.0f} ->"
        f" {so['enabled_steps_per_sec']:,.0f} steps/s)"
        f"  digest_match={so['digest_match']}"
    )
    spans = so.get("spans", {}).get("spans", [])
    if spans:
        print(f"{'':>16}{'top spans by self-time':<26}{'count':>9}"
              f"{'self_ms':>10}{'total_ms':>10}"
              f"{'p50_us':>9}{'p90_us':>9}{'p99_us':>9}")
        for s in spans[:8]:
            print(f"{'':>16}{s['name']:<26}{s['count']:>9}"
                  f"{s['self_ns'] / 1e6:>10.2f}{s['total_ns'] / 1e6:>10.2f}"
                  f"{s['p50_ns'] / 1e3:>9.1f}{s['p90_ns'] / 1e3:>9.1f}"
                  f"{s['p99_ns'] / 1e3:>9.1f}")
PY
fi

if [ -f out/BENCH_channel.json ]; then
  echo "== bench_channel =="
  python3 - <<'PY'
import json

with open("out/BENCH_channel.json") as f:
    b = json.load(f)
for k in ("speedup", "cache_hit_rate", "cold_rebuild_us"):
    if k in b:
        print(f"{k}={b[k]:.3g}", end="  ")
if "digest_match" in b:
    print(f"digest_match={b['digest_match']}", end="  ")
print()
warm = b.get("warm")
if warm:
    print(f"warm: per_call_us={warm['per_call_us']:.3g}  "
          f"allocs_per_call={warm['allocs_per_call']:g}  "
          f"key_skip_rate={warm['key_skip_rate']:.3g}")
rb = b.get("cold_rebuild")
if rb:
    print(f"rebuild: cold_rebuild_us={rb['cold_rebuild_us']:.3g}  "
          f"allocs_per_rebuild={rb['allocs_per_rebuild']:g}  "
          f"rebuilds={rb['rebuilds']}")
PY
fi

# --- headline numbers from text dumps ----------------------------------
# Only figures whose text dump exists get a section: the binaries are
# run piecemeal, and a missing file is not an error.
section() { # section <name> <file> <cmd...>
  local name=$1 file=$2
  shift 2
  [ -f "$file" ] || return 0
  echo "== $name =="
  "$@" "$file" || true
}
section fig03 out/fig03.txt grep -E 'covers|outperforms|max'
section fig04 out/fig04.txt grep -E 'cv='
section fig06 out/fig06.txt tail -2
section fig07 out/fig07.txt grep -E 'rho'
section fig11 out/fig11.txt grep -E 'rho'
section fig12 out/fig12.txt grep 'step'
section fig15 out/fig15.txt grep -E 'fit|residuals'
section fig16 out/fig16.txt grep -E 't90'
section fig18 out/fig18.txt grep -E 'probes ->'
section fig19 out/fig19.txt grep -E 'overhead'
section fig20 out/fig20.txt sh -c 'grep -E "Hybrid|Round" "$0" | head -4'
section fig21 out/fig21.txt grep -E 'observations'
section fig22 out/fig22.txt grep -E 'rho'
section fig23 out/fig23.txt grep -E 'retention'
section fig24 out/fig24.txt grep -E 'retention'
section ablation out/ablation.txt grep -E 'share std|retention'
