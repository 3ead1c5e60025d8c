//! The seeded input generator. Everything a workload feeds the program
//! is derived here from the harness seed and handed over as JSON text,
//! exactly as a user would write it; the same seed gives the same bytes.
//!
//! The generator varies what the program's behaviour depends on — the
//! floor/board arrangement, office counts, cable-length distributions,
//! riser lengths and the appliance mix — while holding the amount of work
//! per run nearly fixed (two boards, stations per board, pairs measured,
//! window length), so seeds differ in the floors they exercise rather
//! than in how much there is to do.

use crate::pins;

/// SplitMix64: small, fast and fully specified.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform integer in `lo..=hi`.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform real in `[lo, hi)`, rounded to 0.1 so the JSON stays
    /// readable.
    pub fn real(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + (hi - lo) * u) * 10.0).round() / 10.0
    }
}

/// Appliance kinds the generator mixes (the scenario schema's names).
const APPLIANCES: [&str; 10] = [
    "lighting",
    "desktop-pc",
    "monitor",
    "laser-printer",
    "coffee-machine",
    "fridge",
    "charger",
    "microwave",
    "it-equipment",
    "space-heater",
];

/// A procedurally generated office building, as a scenario `grid`: two
/// boards, on one floor or stacked on two, with 5–7 offices each.
fn generator_grid(rng: &mut Rng, stations_per_board: u64) -> String {
    let floors = rng.int(1, 2);
    let boards = 3 - floors;
    let offices = rng.int(5, 7).max(stations_per_board);
    let drop_lo = rng.real(2.0, 4.0);
    let drop_hi = drop_lo + rng.real(2.0, 7.0);
    let desk = if rng.int(0, 1) == 0 {
        format!("{{\"fixed_m\": {}}}", rng.real(1.5, 5.0))
    } else {
        let lo = rng.real(1.0, 3.0);
        format!("{{\"uniform_m\": [{lo}, {}]}}", lo + rng.real(1.0, 4.0))
    };
    // Three to five distinct kinds with random weights.
    let mut kinds: Vec<&str> = APPLIANCES.to_vec();
    let mut mix = Vec::new();
    for _ in 0..rng.int(3, 5) {
        let k = kinds.remove(rng.int(0, kinds.len() as u64 - 1) as usize);
        mix.push(format!("\"{k}\": {}", rng.real(0.5, 3.0)));
    }
    format!(
        "{{\"generator\": {{\"floors\": {floors}, \"boards_per_floor\": {boards}, \
         \"offices_per_board\": {offices}, \"stations_per_board\": {stations_per_board}, \
         \"corridor_spacing_m\": {}, \"drop_length_m\": {{\"uniform_m\": [{drop_lo}, {drop_hi}]}}, \
         \"desk_length_m\": {desk}, \"inter_board_cable_m\": {}, \
         \"appliance_mix\": {{{}}}}}}}",
        rng.real(3.0, 5.0),
        rng.real(60.0, 220.0),
        mix.join(", ")
    )
}

fn workload(name: &str, start_hour: u64, duration_s: u64, max_pairs: u64) -> String {
    format!(
        "{{\"name\": \"{name}\", \"start_hour\": {start_hour}, \"duration_s\": {duration_s}, \
         \"sample_ms\": 500, \"max_pairs\": {max_pairs}}}"
    )
}

/// Generated floors in the `campaign-sweep` campaign.
pub const SWEEP_FLOORS: u64 = 5;
/// Campaign seeds besides the paper seed. They come from
/// [`crate::pins::DISTURBANCE_PASS_SEEDS`], the seeds under which the
/// disturbance-demo scenario's verdict is pinned to pass.
pub const SWEEP_EXTRA_SEEDS: usize = 2;

/// The `campaign-sweep` campaign: [`SWEEP_FLOORS`] generated floors and
/// the builtin paper floor, each running fig03, fig07 and probing over
/// its own short window, plus the disturbance-demo scenario file with
/// its own 30 s window and assertions (a campaign-level window would
/// override it and break its verdicts). Campaign seeds are the paper
/// seed, so every sweep covers the paper's floor, and seed-chosen seeds
/// with a pinned disturbance verdict.
pub fn sweep_campaign(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut scenarios: Vec<String> = (0..SWEEP_FLOORS)
        .map(|i| {
            let grid = generator_grid(&mut rng, 4);
            let wl = workload("w", rng.int(8, 18), 3, 3);
            format!(
                "{{\"name\": \"gen-{i}\", \"grid\": {grid}, \"workload\": {wl}, \
                 \"experiments\": [\"fig03\", \"fig07\", \"probing\"]}}"
            )
        })
        .collect();
    scenarios.push(format!(
        "{{\"name\": \"paper-floor\", \"grid\": {{\"builtin\": \"builtin://imc2015-floor\"}}, \
         \"workload\": {}, \"experiments\": [\"fig03\", \"fig07\", \"probing\"]}}",
        workload("w", rng.int(8, 18), 3, 3)
    ));
    scenarios.push("\"scenarios/disturbance-demo.json\"".to_string());
    let pool = pins::DISTURBANCE_PASS_SEEDS;
    let mut seeds = vec![electrifi::experiments::PAPER_SEED];
    while seeds.len() < 1 + SWEEP_EXTRA_SEEDS {
        let s = pool[rng.int(0, pool.len() as u64 - 1) as usize];
        if !seeds.contains(&s) {
            seeds.push(s);
        }
    }
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    format!(
        "{{\"name\": \"bench-sweep\", \"scenarios\": [{}], \"seeds\": [{}]}}",
        scenarios.join(", "),
        seeds.join(", ")
    )
}

/// Distinct campaigns in the `served-jobs` job mix.
pub const JOB_KINDS: u64 = 4;

/// The `served-jobs` job mix: [`JOB_KINDS`] small campaigns, each one
/// generated floor under two seeds with a short window, running fig03
/// and probing.
pub fn served_jobs(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed ^ 0x5e7e_d10b);
    (0..JOB_KINDS)
        .map(|i| {
            let grid = generator_grid(&mut rng, 3);
            let wl = workload("w", rng.int(8, 18), 2, 2);
            let s = rng.int(1, 1 << 31);
            format!(
                "{{\"name\": \"job-{i}\", \"scenarios\": [{{\"name\": \"floor-{i}\", \
                 \"grid\": {grid}, \"workload\": {wl}, \
                 \"experiments\": [\"fig03\", \"probing\"]}}], \"seeds\": [{s}, {}]}}",
                s + 1
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes() {
        assert_eq!(sweep_campaign(7), sweep_campaign(7));
        assert_ne!(sweep_campaign(7), sweep_campaign(8));
        assert_eq!(served_jobs(7), served_jobs(7));
    }

    #[test]
    fn generated_documents_parse() {
        for seed in [1, 2015, 99] {
            let spec = electrifi_scenario::CampaignSpec::from_json_str(
                &sweep_campaign(seed),
                std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/..")),
            )
            .expect("sweep campaign parses");
            assert_eq!(spec.scenarios.len() as u64, SWEEP_FLOORS + 2);
            for job in served_jobs(seed) {
                electrifi_scenario::CampaignSpec::from_json_str(&job, std::path::Path::new("."))
                    .expect("job campaign parses");
            }
        }
    }
}
