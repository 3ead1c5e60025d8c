//! Quickstart: build a small hybrid PLC+WiFi network and read the link
//! metrics the paper is about.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use electrifi::experiments::PAPER_SEED;
use electrifi::{LinkProbeSim, PaperEnv};
use plc_phy::estimation::EstimatorConfig;
use simnet::time::Time;
use wifi80211::throughput::expected_goodput_mbps;

fn main() {
    // The paper's 19-station floor; any seed gives a different building.
    let env = PaperEnv::new(PAPER_SEED);
    println!("Electri-Fi quickstart: four stations of the Fig. 2 floor\n");

    let now = Time::from_hours(10); // weekday, working hours

    for (a, b) in [(1u16, 2u16), (1, 6), (5, 8), (9, 10)] {
        // --- PLC: saturate briefly so tone maps converge, then read the
        // metrics exactly as the paper does (int6krate + ampstat).
        let mut plc = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            EstimatorConfig::default(),
            42,
        );
        let steady = plc.warmup(now, 8);
        let ble = plc.ble_avg();
        let pberr = plc.pberr_cumulative().unwrap_or(0.0);
        let t_plc = plc.throughput_now(steady);

        // --- WiFi: the whole-band capacity estimate at the same moment.
        let wifi = env.wifi_channel(a, b);
        let t_wifi = expected_goodput_mbps(&wifi, now, 1);

        println!(
            "link {a:>2} -> {b:<2}  cable {:>5.1} m  air {:>4.1} m   \
             PLC: BLE {ble:>6.1} Mb/s, PBerr {pberr:.3}, UDP ~{t_plc:>5.1} Mb/s   \
             WiFi: UDP ~{t_wifi:>5.1} Mb/s",
            env.testbed.cable_distance_m(a, b).unwrap_or(f64::NAN),
            env.testbed.air_distance_m(a, b),
        );
    }

    println!("\nGuidelines (paper Table 3):");
    for g in electrifi::guidelines::table3() {
        println!("  [{}] {} (see §{})", g.policy, g.guideline, g.sections);
    }
}
