//! The typed reader of every artifact under `out/`, behind the `report`
//! bin.
//!
//! Each file is deserialized into the struct that writes it — run
//! manifests ([`RunManifest`]), campaign summaries ([`CampaignSummary`],
//! whose runs carry a `faults::Verdict`), the serve control plane's
//! `server.metrics.json` ([`MetricsSnapshot`]) and the bench bins'
//! reports (the [`BenchReport`] and [`ChannelBenchReport`] defined here,
//! which `bench_mac` and `bench_channel` write) — so a renamed field
//! shows up as an `unreadable` line, never as a silent zero. The
//! figures' plain-text dumps get their headline lines picked out by
//! [`FIGURE_HEADLINES`].

use electrifi_scenario::CampaignSummary;
use serde::{Deserialize, Serialize};
use simnet::obs::span::RunProfile;
use simnet::obs::{MetricsSnapshot, RunManifest};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------------
// `out/BENCH_mac.json`
// ---------------------------------------------------------------------------

/// One timed arm of a `bench_mac` workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Arm {
    /// MAC scheduling steps taken inside the timed window.
    pub steps: u64,
    /// Wall-clock seconds the window took.
    pub wall_s: f64,
    /// Steps per wall-clock second.
    pub steps_per_sec: f64,
    /// FNV digest over every observable at the end of the run.
    pub digest: String,
    /// Heap allocations (allocs + reallocs) inside the timed window.
    pub allocs_in_window: u64,
    /// Allocations per step inside the window.
    pub allocs_per_step: f64,
    /// `plc.mac.scratch_reuses` delta over the window.
    pub scratch_reuses: u64,
    /// `plc.mac.allocs_saved` delta over the window.
    pub allocs_saved: u64,
}

/// The reference and optimized arms of one `bench_mac` workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Simulated seconds in the timed window.
    pub window_sim_s: f64,
    /// Whether the estimator was quiesced and spectrum refreshes frozen
    /// after warmup (isolates the MAC scheduling loop from shared
    /// estimation/PHY costs that have their own benchmarks).
    pub estimator_quiesced: bool,
    /// The retained reference stepper.
    pub reference: Arm,
    /// The optimized hot loop.
    pub optimized: Arm,
    /// optimized steps/sec over reference steps/sec.
    pub speedup: f64,
    /// The two arms saw byte-identical observables.
    pub digest_match: bool,
}

/// The idle-skip section of a `bench_mac` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IdleReport {
    /// Simulated seconds of the mostly-idle probing run.
    pub sim_s: f64,
    /// `plc.mac.idle_skips`: idle steps answered from the cached
    /// next-arrival.
    pub idle_skips: u64,
    /// `plc.mac.idle_rescans`: idle steps that re-scanned every flow.
    pub idle_rescans: u64,
    /// skips / (skips + rescans).
    pub hit_rate: f64,
    /// Optimized-over-reference steps/sec on the idle workload.
    pub speedup: f64,
    /// The two arms saw byte-identical observables.
    pub digest_match: bool,
}

/// Cost of the span-tracing hot path: the optimized quiesced Fig. 16
/// arm with stats-mode spans enabled versus the same arm with spans
/// disabled. The gate requires `ratio >= 0.95` (spans may cost at most
/// 5%) and `digest_match == true` (observation never perturbs the
/// simulation).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpanOverhead {
    /// Simulated seconds in the timed window.
    pub window_sim_s: f64,
    /// Steps/sec with span collection disabled (the ambient default).
    pub disabled_steps_per_sec: f64,
    /// Steps/sec with a stats-mode span collector active.
    pub enabled_steps_per_sec: f64,
    /// enabled over disabled steps/sec (1.0 = spans are free).
    pub ratio: f64,
    /// The traced and untraced arms saw byte-identical observables.
    pub digest_match: bool,
    /// Top spans by self-time observed during the enabled arm.
    pub spans: RunProfile,
}

/// What `out/BENCH_mac.json` records; also the committed baseline's
/// type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    /// Always `bench_mac`.
    pub name: String,
    /// Seed of every workload.
    pub seed: u64,
    /// Tiny windows, invariants gated only.
    pub smoke: bool,
    /// Best-of-N repetitions per arm (noise filter).
    pub reps: usize,
    /// The 10-station Fig. 16 probing workload with the estimator
    /// quiesced — the tentpole number the perf gate checks (≥ 3× and
    /// zero allocs/step).
    pub mac_loop: Comparison,
    /// The saturated Table-3-shaped mesh (shared frame/PB work bounds
    /// the ratio here; the gate checks zero allocs and no regression
    /// against the baseline ratio).
    pub saturated: Comparison,
    /// The Fig. 16 workload with estimation left on: end-to-end speedup
    /// as the figure experiments see it.
    pub full_profile: Comparison,
    /// The mostly-idle probing workload.
    pub idle: IdleReport,
    /// Span-tracing overhead on the gated workload (the gate requires
    /// ratio ≥ 0.95 and a digest match). `None` only in the committed
    /// baseline, which predates it; no gate reads a baseline span ratio.
    pub span_overhead: Option<SpanOverhead>,
}

// ---------------------------------------------------------------------------
// `out/BENCH_channel.json`
// ---------------------------------------------------------------------------

/// The uncached-evaluator arm of `bench_channel`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColdEval {
    /// Evaluations timed.
    pub iters: u64,
    /// Wall seconds for all of them.
    pub total_s: f64,
    /// Wall µs per evaluation.
    pub per_eval_us: f64,
}

/// The cached hot path on an epoch-stable window.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Warm {
    /// Calls timed.
    pub iters: u64,
    /// Wall seconds for all of them.
    pub total_s: f64,
    /// Wall µs per call.
    pub per_call_us: f64,
    /// Heap allocations (allocs + reallocs) per call in the timed
    /// window. Gated to exactly zero.
    pub allocs_per_call: f64,
    /// Calls served from the current epoch.
    pub epoch_hits: u64,
    /// Calls that rebuilt the epoch.
    pub epoch_rebuilds: u64,
    /// Calls served inside the analytic validity window (no schedule
    /// scanned at all).
    pub key_skips: u64,
    /// Calls that re-derived the epoch key.
    pub key_rescans: u64,
    /// hits / (hits + rebuilds).
    pub cache_hit_rate: f64,
    /// skips / (skips + rescans).
    pub key_skip_rate: f64,
}

/// The gated epoch-rebuild arm: every call flips the appliance epoch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColdRebuild {
    /// Calls per rep.
    pub iters: u64,
    /// Repetitions (best-of).
    pub reps: u64,
    /// Wall seconds of the best rep.
    pub best_total_s: f64,
    /// Wall µs per call in the all-rebuilds regime (best rep).
    pub cold_rebuild_us: f64,
    /// Epoch rebuilds observed across all reps — must equal
    /// `iters · reps` (every call really rebuilt).
    pub rebuilds: u64,
    /// Heap allocations per rebuild. Gated to exactly zero.
    pub allocs_per_rebuild: f64,
}

/// What `out/BENCH_channel.json` records; also the committed baseline's
/// type.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChannelBenchReport {
    /// Seed of the paper floor.
    pub seed: u64,
    /// The benchmarked link.
    pub link: (u16, u16),
    /// Its tap count.
    pub taps: usize,
    /// OFDM carriers per spectrum.
    pub carriers: usize,
    /// Tiny loops, invariants gated only.
    pub smoke: bool,
    /// The uncached reference evaluator.
    pub cold_eval: ColdEval,
    /// The cached hot path.
    pub warm: Warm,
    /// The epoch-rebuild arm.
    pub cold_rebuild: ColdRebuild,
    /// Top-level copy of the gated number.
    pub cold_rebuild_us: f64,
    /// cold per-eval over warm per-call.
    pub speedup: f64,
    /// Copy of `warm.cache_hit_rate`.
    pub cache_hit_rate: f64,
    /// Cached and reference spectra agree bitwise over the tour.
    pub digest_match: bool,
    /// Digest of the cached spectra over the tour.
    pub digest: String,
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Figures whose `out/<name>.txt` dump gets a section, each with the
/// substrings that pick out its headline lines.
pub const FIGURE_HEADLINES: &[(&str, &[&str])] = &[
    ("fig03", &["covers", "outperforms", "max"]),
    ("fig04", &["cv="]),
    ("fig06", &["asymmetry"]),
    ("fig07", &["rho"]),
    ("fig11", &["rho"]),
    ("fig12", &["step"]),
    ("fig15", &["fit", "residuals"]),
    ("fig16", &["t90"]),
    ("fig18", &["probes ->"]),
    ("fig19", &["overhead"]),
    ("fig20", &["Hybrid", "Round"]),
    ("fig21", &["observations"]),
    ("fig22", &["rho"]),
    ("fig23", &["retention"]),
    ("fig24", &["retention"]),
    ("ablation", &["share std", "retention"]),
];

/// The `serve.<group>.<name>` values printed per `server.metrics.json`.
const SERVE_VALUES: [(&str, &str); 3] = [
    (
        "queue",
        "submitted completed failed cancelled rejected_full depth",
    ),
    ("stream", "events subscribers dropped"),
    (
        "workers",
        "spawned deaths shards_requeued runs_executed runs_resumed",
    ),
];

/// The header of a span profile's table.
const SPANS_HEADER: &str =
    "top spans by self-time        count   self_ms  total_ms   p50_us   p90_us   p99_us";

/// The rendered report over one `out/` directory.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything the `report` bin prints.
    pub text: String,
    /// Artifacts that could not be read or did not parse.
    pub unreadable: usize,
}

impl Report {
    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    /// Print the `== name ==` header, then read each of `paths` as a
    /// `T`; a file that does not parse prints as unreadable.
    fn load<T: serde::Deserialize>(&mut self, name: &str, paths: &[PathBuf]) -> Vec<(PathBuf, T)> {
        let none = paths.is_empty().then_some("  (none found under out/)");
        self.line(format!("== {name} =={}", none.unwrap_or_default()));
        let mut parsed = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(path).map_err(|e| e.to_string());
            match text.and_then(|t| serde_json::from_str(&t).map_err(|e| e.to_string())) {
                Ok(value) => parsed.push((path.clone(), value)),
                Err(e) => {
                    self.unreadable += 1;
                    self.line(format!("{}: unreadable ({e})", path.display()));
                }
            }
        }
        parsed
    }
}

/// Read every artifact under `out` and render the report.
pub fn render(out: &Path) -> Report {
    let mut r = Report::default();
    let manifests = entries(out).into_iter();
    let manifests: Vec<PathBuf> = manifests
        .filter(|p| p.to_string_lossy().ends_with(".manifest.json"))
        .collect();
    for (_, m) in r.load::<RunManifest>("manifests", &manifests) {
        manifest(&mut r, &m);
    }
    let summaries = r.load::<CampaignSummary>("campaigns", &in_subdirs(out, "summary.json"));
    let summaries: Vec<CampaignSummary> = summaries.into_iter().map(|(_, s)| s).collect();
    summaries.iter().for_each(|s| campaign(&mut r, s));
    verdicts(&mut r, &summaries);
    let serve = in_subdirs(out, "server.metrics.json");
    for (path, m) in r.load::<MetricsSnapshot>("serve control plane", &serve) {
        r.line(format!("{}:", path.display()));
        for (group, names) in SERVE_VALUES {
            let value = |key: String| match m.gauges.iter().find(|(n, _)| *n == key) {
                Some((_, gauge)) => *gauge,
                None => m.counter(&key) as f64,
            };
            let values: Vec<String> = names
                .split_whitespace()
                .map(|n| format!("{n}={}", value(format!("serve.{group}.{n}"))))
                .collect();
            r.line(format!("  {group}: {}", values.join("  ")));
        }
    }
    // The bench reports get a section only when they exist.
    let mac = out.join("BENCH_mac.json");
    if mac.is_file() {
        for (_, b) in r.load("bench_mac", &[mac]) {
            bench_mac(&mut r, &b);
        }
    }
    let channel = out.join("BENCH_channel.json");
    if channel.is_file() {
        for (_, b) in r.load("bench_channel", &[channel]) {
            bench_channel(&mut r, &b);
        }
    }
    for (name, needles) in FIGURE_HEADLINES {
        if let Ok(text) = std::fs::read_to_string(out.join(format!("{name}.txt"))) {
            r.line(format!("== {name} =="));
            let wanted = |l: &&str| needles.iter().any(|n| l.contains(n));
            text.lines().filter(wanted).for_each(|l| r.line(l));
        }
    }
    r
}

/// Entries of `dir`, sorted; none when it cannot be listed.
fn entries(dir: &Path) -> Vec<PathBuf> {
    let listing = std::fs::read_dir(dir).into_iter().flatten();
    let mut paths: Vec<PathBuf> = listing.filter_map(|e| Some(e.ok()?.path())).collect();
    paths.sort();
    paths
}

/// Every `dir/*/file` that exists, sorted.
fn in_subdirs(dir: &Path, file: &str) -> Vec<PathBuf> {
    let paths = entries(dir).into_iter().map(|d| d.join(file));
    paths.filter(|p| p.is_file()).collect()
}

/// `items` joined by `, ` after `label`, or nothing when there are none.
fn list(label: &str, items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.collect();
    if items.is_empty() {
        String::new()
    } else {
        format!("{label}{}", items.join(", "))
    }
}

/// One line per run manifest: enough to spot a slow or misconfigured
/// run at a glance, plus its span profile when it was traced.
fn manifest(r: &mut Report, m: &RunManifest) {
    let (name, seed, scale, wall, events) =
        (&m.name, m.seed, &m.scale, m.wall_clock_s, m.events_fired);
    let eps = if wall > 0.0 {
        events as f64 / wall
    } else {
        0.0
    };
    let eps = grouped(eps);
    let mut top = m.metrics.counters.clone();
    top.sort_by_key(|(_, v)| std::cmp::Reverse(*v));
    let top = list(
        "  top: ",
        top.iter().take(3).map(|(n, v)| format!("{n}={v}")),
    );
    // Checkpoint bookkeeping is worth calling out whenever a run used
    // snapshots at all.
    let ckpt = m
        .metrics
        .counters
        .iter()
        .filter(|(n, v)| n.starts_with("state.checkpoint.") && *v > 0);
    let ckpt = list(
        "  checkpoint: ",
        ckpt.map(|(n, v)| format!("{}={v}", n.rsplit('.').next().unwrap_or(n))),
    );
    r.line(format!(
        "{name:>10}  seed={seed}  scale={scale:>5}  wall={wall:6.1}s  events={events}  \
         ({eps} ev/s){top}{ckpt}"
    ));
    if let Some(profile) = &m.profile {
        spans_table(r, 12, profile);
    }
}

/// The top eight spans of `profile` by self time, indented by `pad`.
fn spans_table(r: &mut Report, pad: usize, profile: &RunProfile) {
    if !profile.spans.is_empty() {
        r.line(format!("{:pad$}{SPANS_HEADER}", ""));
    }
    for s in profile.spans.iter().take(8) {
        let (name, count) = (&s.name, s.count);
        let (self_ms, total_ms) = (s.self_ns as f64 / 1e6, s.total_ns as f64 / 1e6);
        let [p50, p90, p99] = [s.p50_ns, s.p90_ns, s.p99_ns].map(|ns| ns / 1e3);
        r.line(format!(
            "{:pad$}{name:<26}{count:>9}{self_ms:>10.2}{total_ms:>10.2}\
             {p50:>9.1}{p90:>9.1}{p99:>9.1}",
            ""
        ));
    }
}

/// One block per campaign summary: per-run headlines and the totals.
fn campaign(r: &mut Report, s: &CampaignSummary) {
    let (name, runs, digest) = (&s.campaign, s.runs.len(), &s.config_digest);
    r.line(format!("{name}: {runs} run(s)  digest={digest}"));
    for run in &s.runs {
        let (name, stations, links) = (&run.run, run.stations, run.plc_links);
        let heads: Vec<String> = run
            .experiments
            .iter()
            .flat_map(|e| e.headline.iter().take(2).map(move |(k, v)| (&e.kind, k, v)))
            .map(|(kind, k, v)| format!("{kind}.{k}={}", sig(*v, 3)))
            .collect();
        let heads = heads.join("  ");
        r.line(format!(
            "  {name:32} stations={stations:>3}  plc_links={links:>4}  {heads}"
        ));
    }
    let totals = s.totals.iter().take(6);
    let totals = list(
        "  totals: ",
        totals.map(|(k, v)| format!("{k}={}", sig(*v, 3))),
    );
    if !totals.is_empty() {
        r.line(totals);
    }
}

/// Pass counts per assertion kind and recovery statistics across every
/// gated run of every summary.
fn verdicts(r: &mut Report, summaries: &[CampaignSummary]) {
    let runs = summaries.iter().flat_map(|s| &s.runs);
    let verdicts: Vec<_> = runs.filter_map(|run| run.verdict.as_ref()).collect();
    if verdicts.is_empty() {
        return;
    }
    let mut kinds: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for a in verdicts.iter().flat_map(|v| &v.assertions) {
        let k = kinds.entry(&a.kind).or_default();
        *k = (k.0 + usize::from(a.pass), k.1 + 1);
    }
    let (total, passed) = (verdicts.len(), verdicts.iter().filter(|v| v.pass).count());
    r.line("== disturbance verdicts ==");
    r.line(format!(
        "{total} gated run(s), {passed} passed, {} failed",
        total - passed
    ));
    r.line(format!(
        "  {:<28}{:>8}{:>7}",
        "assertion", "passed", "total"
    ));
    for (kind, (passed, total)) in kinds {
        let flag = if passed < total { "   <-- FAILING" } else { "" };
        r.line(format!("  {kind:<28}{passed:>8}{total:>7}{flag}"));
    }
    let mut recovery: Vec<f64> = verdicts.iter().filter_map(|v| v.max_recovery_s).collect();
    recovery.sort_by(f64::total_cmp);
    if let Some(worst) = recovery.last() {
        let (median, n) = (recovery[recovery.len() / 2], recovery.len());
        r.line(format!(
            "  recovery: worst={worst:.3}s  median={median:.3}s  over {n} run(s)"
        ));
    }
}

fn bench_mac(r: &mut Report, b: &BenchReport) {
    let smoke = b.smoke.then_some("  (SMOKE run: timings not meaningful)");
    r.line(format!(
        "seed={}  reps={}{}",
        b.seed,
        b.reps,
        smoke.unwrap_or_default()
    ));
    let arms = [
        ("mac_loop", &b.mac_loop),
        ("saturated", &b.saturated),
        ("full_profile", &b.full_profile),
    ];
    for (name, c) in arms {
        let (speedup, ok) = (c.speedup, c.digest_match);
        let (from, to) = (
            grouped(c.reference.steps_per_sec),
            grouped(c.optimized.steps_per_sec),
        );
        let (allocs_from, allocs_to) = (c.reference.allocs_in_window, c.optimized.allocs_in_window);
        r.line(format!(
            "{name:>14}: {speedup:.2}x  ({from} -> {to} steps/s)  \
             allocs/window {allocs_from} -> {allocs_to}  digest_match={ok}"
        ));
    }
    let i = &b.idle;
    r.line(format!(
        "{:>14}: hit rate {:.2}  ({} skips / {} rescans)  digest_match={}",
        "idle", i.hit_rate, i.idle_skips, i.idle_rescans, i.digest_match
    ));
    if let Some(so) = &b.span_overhead {
        let (ratio, ok) = (so.ratio, so.digest_match);
        let (from, to) = (
            grouped(so.disabled_steps_per_sec),
            grouped(so.enabled_steps_per_sec),
        );
        r.line(format!(
            "{:>14}: enabled/disabled ratio {ratio:.3}  ({from} -> {to} steps/s)  \
             digest_match={ok}",
            "spans"
        ));
        spans_table(r, 16, &so.spans);
    }
}

fn bench_channel(r: &mut Report, b: &ChannelBenchReport) {
    let [speedup, hits, rebuild_us] =
        [b.speedup, b.cache_hit_rate, b.cold_rebuild_us].map(|v| sig(v, 3));
    let ok = b.digest_match;
    r.line(format!(
        "speedup={speedup}  cache_hit_rate={hits}  cold_rebuild_us={rebuild_us}  digest_match={ok}"
    ));
    let (w, rb) = (&b.warm, &b.cold_rebuild);
    let [per_call, skips] = [w.per_call_us, w.key_skip_rate].map(|v| sig(v, 3));
    let allocs = sig(w.allocs_per_call, 6);
    r.line(format!(
        "warm: per_call_us={per_call}  allocs_per_call={allocs}  key_skip_rate={skips}"
    ));
    let (rebuild_us, allocs, n) = (
        sig(rb.cold_rebuild_us, 3),
        sig(rb.allocs_per_rebuild, 6),
        rb.rebuilds,
    );
    r.line(format!(
        "rebuild: cold_rebuild_us={rebuild_us}  allocs_per_rebuild={allocs}  rebuilds={n}"
    ));
}

/// `v` to `p` significant digits with trailing zeros dropped, in
/// scientific notation below 1e-4 or from 10^p up (printf's `%.{p}g`).
pub fn sig(v: f64, p: usize) -> String {
    if !v.is_finite() {
        return format!("{v}").to_lowercase();
    }
    let trim = |s: &str| {
        if s.contains('.') {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        } else {
            s.to_string()
        }
    };
    let sci = format!("{:.*e}", p.max(1) - 1, v);
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let exp: i32 = exp.parse().unwrap_or(0);
    if exp < -4 || exp >= p as i32 {
        let sign = if exp < 0 { '-' } else { '+' };
        format!("{}e{sign}{:02}", trim(mantissa), exp.abs())
    } else {
        trim(&format!("{:.*}", (p as i32 - 1 - exp).max(0) as usize, v))
    }
}

/// `v` rounded to an integer and grouped by thousands (`775,141`).
pub fn grouped(v: f64) -> String {
    let text = format!("{v:.0}");
    let (sign, digits) = text.split_at(usize::from(text.starts_with('-')));
    let mut out = sign.to_string();
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sig_matches_printf_g() {
        let cases = [
            (0.0, 3, "0"),
            (1234.5, 3, "1.23e+03"),
            (123.0, 3, "123"),
            (0.1, 3, "0.1"),
            (0.00012345, 3, "0.000123"),
            (0.000012345, 3, "1.23e-05"),
            (999.6, 3, "1e+03"),
            (-2.5, 3, "-2.5"),
            (0.5, 6, "0.5"),
            (29.7209725, 3, "29.7"),
        ];
        for (v, p, want) in cases {
            assert_eq!(sig(v, p), want, "sig({v}, {p})");
        }
        assert_eq!(sig(f64::NAN, 3), "nan");
    }

    #[test]
    fn grouped_inserts_thousands_separators() {
        assert_eq!(grouped(775141.23), "775,141");
        assert_eq!(grouped(999.0), "999");
        assert_eq!(grouped(-1234567.0), "-1,234,567");
    }
}
