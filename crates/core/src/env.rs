//! The experiment environment: the testbed the experiments measure. The
//! calibrated model constants live beside the models that read them.
//!
//! ## Environment variables
//!
//! Experiments honour two process-level knobs:
//!
//! * `ELECTRIFI_SCALE` — `quick` shrinks durations for smoke runs of
//!   the `paper` binary (read by `electrifi-bench::scale_from_env`);
//! * `ELECTRIFI_THREADS` — sweep worker count, a **positive integer**.
//!   Parsing is validated by `simnet::threads::worker_count_from_env`:
//!   `0` and non-numeric values stop the first sweep with a clear
//!   message instead of silently changing the parallelism. `1` forces
//!   sequential sweeps; unset uses all cores.

use electrifi_testbed::{PlcNetwork, StationId, Testbed};

use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::PlcTechnology;
use wifi80211::WifiChannel;

/// Everything an experiment needs: the reconstructed floor.
#[derive(Debug, Clone)]
pub struct PaperEnv {
    /// The 19-station floor.
    pub testbed: Testbed,
}

impl PaperEnv {
    /// Build the standard environment from a master seed.
    pub fn new(seed: u64) -> Self {
        Self::from_testbed(Testbed::paper_floor(seed))
    }

    /// Build the environment around an arbitrary testbed (the paper's
    /// floor, a scenario file's explicit grid, or a procedurally
    /// generated one).
    ///
    /// Every experiment entry point takes a `&PaperEnv`, so this is the
    /// hook that makes them scenario-parameterised: the `scenario` crate
    /// builds testbeds from declarative JSON and runs the same
    /// experiments over them. Station ids are expected to be the
    /// contiguous range `0..stations.len()` (the scenario loader
    /// validates this).
    pub fn from_testbed(testbed: Testbed) -> Self {
        PaperEnv { testbed }
    }

    /// The PLC channel of a station pair (same-network pairs are the
    /// meaningful ones). Panics if the pair is not wired at all.
    pub fn plc_channel(&self, a: StationId, b: StationId) -> PlcChannel {
        self.plc_channel_tech(a, b, PlcTechnology::HpAv)
    }

    /// The PLC channel with an explicit technology (HPAV vs HPAV500 for
    /// the Fig. 7 comparison).
    pub fn plc_channel_tech(&self, a: StationId, b: StationId, tech: PlcTechnology) -> PlcChannel {
        self.testbed
            .plc_channel(a, b, tech)
            .unwrap_or_else(|| panic!("stations {a} and {b} share no wiring"))
    }

    /// Direction selector for channels built by [`PaperEnv::plc_channel`].
    pub fn dir(a: StationId, b: StationId) -> LinkDir {
        Testbed::link_dir(a, b)
    }

    /// The WiFi channel of a station pair.
    pub fn wifi_channel(&self, a: StationId, b: StationId) -> WifiChannel {
        self.testbed.wifi_channel(a, b)
    }

    /// Directed same-network PLC pairs (the paper's link population).
    pub fn plc_pairs(&self) -> Vec<(StationId, StationId)> {
        self.testbed.plc_pairs()
    }

    /// Members of one PLC logical network.
    pub fn network_members(&self, net: PlcNetwork) -> Vec<StationId> {
        self.testbed.network_members(net)
    }

    /// All undirected station pairs `(a, b)` with `a < b`, across both
    /// mediums and networks — the population the spatial experiments
    /// sweep. Deterministic order (station id).
    pub fn station_pairs(&self) -> Vec<(StationId, StationId)> {
        let n = self.testbed.stations.len() as StationId;
        let mut pairs = Vec::with_capacity(n as usize * (n as usize - 1) / 2);
        for a in 0..n {
            for b in (a + 1)..n {
                pairs.push((a, b));
            }
        }
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::Time;

    #[test]
    fn env_builds_channels_both_ways() {
        let env = PaperEnv::new(2015);
        let ch = env.plc_channel(1, 6);
        let t = Time::from_hours(10);
        let fwd = ch.spectrum(PaperEnv::dir(1, 6), t).mean_db();
        let rev = ch.spectrum(PaperEnv::dir(6, 1), t).mean_db();
        assert!(fwd.is_finite() && rev.is_finite());
        let w = env.wifi_channel(1, 6);
        assert!(w.snr_db(t).is_finite());
    }

    #[test]
    fn pair_population_matches_testbed() {
        let env = PaperEnv::new(1);
        assert_eq!(env.plc_pairs().len(), 174);
        assert_eq!(env.network_members(PlcNetwork::A).len(), 12);
    }
}
