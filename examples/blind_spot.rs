//! Coverage survey: where does WiFi leave blind spots, and does PLC fill
//! them? (The paper's §4.1 motivation: "PLC can eliminate, to a large
//! extent, blind spots".)
//!
//! ```sh
//! cargo run --release --example blind_spot
//! ```

use electrifi::experiments::PAPER_SEED;
use electrifi::{LinkProbeSim, PaperEnv};
use plc_phy::estimation::EstimatorConfig;
use simnet::time::Time;
use wifi80211::throughput::expected_goodput_mbps;

fn main() {
    let env = PaperEnv::new(PAPER_SEED);
    let now = Time::from_hours(14);
    // Survey from an "access point" at station 5 toward every other
    // station of the same PLC network.
    let ap: u16 = 5;
    println!("Coverage survey from station {ap} (network A)\n");
    println!(
        "{:>7} {:>8} {:>8} {:>12} {:>12}  verdict",
        "station", "air m", "cable m", "WiFi Mb/s", "PLC Mb/s"
    );

    let mut blind = 0usize;
    let mut rescued = 0usize;
    for s in env.network_members(electrifi_testbed::PlcNetwork::A) {
        if s == ap {
            continue;
        }
        let air = env.testbed.air_distance_m(ap, s);
        let cable = env.testbed.cable_distance_m(ap, s).unwrap_or(f64::NAN);
        let wifi = expected_goodput_mbps(&env.wifi_channel(ap, s), now, 1);
        let mut plc = LinkProbeSim::new(
            env.plc_channel(ap, s),
            PaperEnv::dir(ap, s),
            EstimatorConfig::default(),
            7,
        );
        let steady = plc.warmup(now, 8);
        let t_plc = plc.throughput_now(steady);
        let verdict = if wifi < 1.0 && t_plc >= 1.0 {
            blind += 1;
            rescued += 1;
            "BLIND SPOT — rescued by PLC"
        } else if wifi < 1.0 {
            blind += 1;
            "blind on both"
        } else if t_plc > wifi {
            "PLC faster"
        } else {
            "WiFi faster"
        };
        println!("{s:>7} {air:>8.1} {cable:>8.1} {wifi:>12.1} {t_plc:>12.1}  {verdict}");
    }
    println!(
        "\n{blind} WiFi blind spot(s); PLC rescued {rescued} of them \
         (the paper: PLC connects 100% of pairs, WiFi dies beyond ~35 m)."
    );
}
