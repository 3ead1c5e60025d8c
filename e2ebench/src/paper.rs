//! `paper-quick`: every figure and table runner of
//! `electrifi::experiments` at `Scale::Quick` over one `PaperEnv`.
//!
//! Why: this is the ROADMAP headline — the wall time to regenerate the
//! paper. It is the only workload that runs the PLC MAC simulator
//! (fig20–fig24) and the hybrid balancer (fig20), and it is heavy on the
//! channel-estimator path (`LinkProbeSim` in fig10–fig19). Paper scale is
//! left out: one pass sums to minutes, and Quick keeps the mechanics.

use crate::measure::digest_json;
use crate::pins;
use crate::{Ctx, Layer, Ops, Workload};
use electrifi::experiments::{capacity, hybrid, retrans, spatial, temporal, Scale};
use electrifi::{guidelines, PaperEnv};
use plc_phy::PlcTechnology;
use simnet::obs::span;
use std::time::Instant;

const Q: Scale = Scale::Quick;

/// Runner names, in the order one pass calls them. `core.<name>_s` is
/// the per-layer metric of each.
pub const RUNNERS: [&str; 21] = [
    "fig03", "fig04", "fig06", "fig07", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14",
    "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "table3",
];

/// Span names of the harness's own span around each runner.
const SPANS: [&str; 21] = [
    "bench.fig03",
    "bench.fig04",
    "bench.fig06",
    "bench.fig07",
    "bench.fig09",
    "bench.fig10",
    "bench.fig11",
    "bench.fig12",
    "bench.fig13",
    "bench.fig14",
    "bench.fig15",
    "bench.fig16",
    "bench.fig17",
    "bench.fig18",
    "bench.fig19",
    "bench.fig20",
    "bench.fig21",
    "bench.fig22",
    "bench.fig23",
    "bench.fig24",
    "bench.table3",
];

/// Build the HPAV channel of every same-network pair in the Fig. 3 pair
/// set through the public constructor, each call under a
/// `bench.static_build` span. Construction is the path search, the tap
/// and appliance lookup, and the static per-carrier terms every spectrum
/// of the link reuses; each runner pays it again for every link it
/// measures.
pub fn static_build(env: &PaperEnv) {
    let pairs = env.station_pairs();
    for &(a, b) in &pairs[..Q.take(pairs.len(), 12)] {
        let t = &env.testbed;
        if t.station(a).network == t.station(b).network {
            let _span = span::enter("bench.static_build");
            std::hint::black_box(env.plc_channel_tech(a, b, PlcTechnology::HpAv));
        }
    }
}

/// Call runner `i`; returns its host seconds and the digest of its
/// serialized result (digesting is not timed).
fn run(i: usize, env: &PaperEnv) -> (f64, u64) {
    macro_rules! timed {
        ($call:expr) => {{
            let t0 = Instant::now();
            let result = {
                let _span = span::enter(SPANS[i]);
                $call
            };
            let secs = t0.elapsed().as_secs_f64();
            (secs, digest_json(&result))
        }};
    }
    match RUNNERS[i] {
        "fig03" => timed!(spatial::fig3(env, Q)),
        "fig04" => timed!(temporal::fig4(env, Q)),
        "fig06" => timed!(spatial::fig6(env, Q)),
        "fig07" => timed!(spatial::fig7(env, Q)),
        "fig09" => timed!(temporal::fig9(env, Q)),
        "fig10" => timed!(temporal::fig10(env, Q)),
        "fig11" => timed!(temporal::fig11(env, Q)),
        "fig12" => timed!(temporal::fig12(env, Q)),
        // Figs. 13 and 14 are the weekly traces of a good and a bad link,
        // exactly as their reproduction binaries call them.
        "fig13" => timed!(temporal::weekly(env, 1, 8, Q)),
        "fig14" => timed!(temporal::weekly(env, 2, 11, Q)),
        "fig15" => timed!(capacity::fig15(env, Q)),
        "fig16" => timed!(capacity::fig16(env, Q)),
        "fig17" => timed!(capacity::fig17(env, Q)),
        "fig18" => timed!(capacity::fig18(env, Q)),
        "fig19" => timed!(capacity::fig19(env, Q)),
        "fig20" => timed!(hybrid::fig20(env, Q)),
        "fig21" => timed!(retrans::fig21(env, Q)),
        "fig22" => timed!(retrans::fig22(env, Q)),
        "fig23" => timed!(retrans::fig23(env, Q)),
        "fig24" => timed!(retrans::fig24(env, Q)),
        "table3" => timed!(guidelines::table3()),
        other => unreachable!("runner {other} is listed but not dispatched"),
    }
}

pub struct Paper {
    seed: u64,
    threads: usize,
    env: PaperEnv,
    /// Digests of the first pass; later passes must repeat them.
    first: Option<Vec<u64>>,
}

impl Workload for Paper {
    const NAME: &'static str = "paper-quick";
    const TAIL_CAP: u32 = 75;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let env = {
            let _span = span::enter("bench.env_build");
            PaperEnv::new(ctx.seed)
        };
        Ok(Paper {
            seed: ctx.seed,
            threads: ctx.nproc,
            env,
            first: None,
        })
    }

    fn pass(&mut self, ops: &mut Ops) -> Vec<f64> {
        let mut parts = Vec::with_capacity(RUNNERS.len());
        let mut digests = Vec::with_capacity(RUNNERS.len());
        for i in 0..RUNNERS.len() {
            let (secs, d) = run(i, &self.env);
            parts.push(secs);
            digests.push(d);
            ops.done(secs);
        }
        let expected = self
            .first
            .clone()
            .or_else(|| pins::paper(self.seed).map(<[u64]>::to_vec));
        match expected {
            Some(want) => {
                for (i, (got, want)) in digests.iter().zip(&want).enumerate() {
                    if got != want {
                        ops.mismatch(&format!(
                            "{} digest {got:#018x}, expected {want:#018x}",
                            RUNNERS[i]
                        ));
                    }
                }
            }
            None => eprintln!(
                "note: seed {} has no pinned digests; pass 1 gave {:#x?}",
                self.seed, digests
            ),
        }
        self.first.get_or_insert(digests);
        parts
    }

    fn probe(&mut self) {
        static_build(&self.env);
        // The public per-link measurement functions over the Fig. 3 pair
        // set and window, timed on their own: the estimator-on PLC path
        // and the WiFi rate path without the sweep around them.
        let cfg = spatial::SpatialConfig::fig3(Q);
        let pairs = self.env.station_pairs();
        let keep = Q.take(pairs.len(), 12);
        for &(a, b) in &pairs[..keep] {
            let t = &self.env.testbed;
            if t.station(a).network == t.station(b).network {
                let _span = span::enter("bench.measure_plc");
                spatial::measure_plc(
                    &self.env,
                    a,
                    b,
                    PlcTechnology::HpAv,
                    cfg.start,
                    cfg.duration,
                    cfg.sample,
                );
            }
            let _span = span::enter("bench.measure_wifi");
            spatial::measure_wifi(&self.env, a, b, cfg.start, cfg.duration, cfg.sample);
        }
    }

    fn workers(&self) -> Vec<(&'static str, usize)> {
        vec![("host.workers.threads", self.threads)]
    }

    fn layers(&self) -> Vec<Layer> {
        Vec::new()
    }
}
