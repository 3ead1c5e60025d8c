//! Cross-crate integration tests: end-to-end scenarios exercising the
//! whole stack (testbed → channels → MAC/estimation → metrics → hybrid
//! layer) through the public APIs only.

use electrifi::experiments::{Scale, PAPER_SEED};
use electrifi::{LinkProbeSim, PaperEnv};
use electrifi_testbed::{PlcNetwork, Testbed};
use hybrid1905::balancer::SplitStrategy;
use plc_mac::sim::{Flow, PlcSim, SimConfig};
use plc_phy::estimation::EstimatorConfig;
use plc_phy::PlcTechnology;
use simnet::time::{Duration, Time};
use simnet::traffic::TrafficSource;

#[test]
fn end_to_end_metric_pipeline() {
    // Channel → probe sim → per-direction BLE → probe plan.
    let env = PaperEnv::new(PAPER_SEED);
    let now = Time::from_hours(10);
    let mut good_links = 0;
    for (a, b) in [(1u16, 2u16), (5, 8), (9, 10)] {
        for (src, dst) in [(a, b), (b, a)] {
            let mut sim = LinkProbeSim::new(
                env.plc_channel(src, dst),
                PaperEnv::dir(src, dst),
                EstimatorConfig::default(),
                99,
            );
            sim.warmup(now, 8);
            // Both directions measure a capacity, so the asymmetry ratio
            // of every pair is defined.
            let ble = sim.ble_avg();
            assert!(ble > 0.0, "{src}->{dst}: BLE {ble}");
            // Guideline consistency: good links get the slowest probing.
            let plan = electrifi::guidelines::ProbePlan::recommended(ble, false);
            if ble > 100.0 {
                assert_eq!(plan.interval, Duration::from_secs(80), "{src}->{dst}");
                good_links += 1;
            }
        }
    }
    assert!(
        good_links > 0,
        "no link above 100 Mb/s to check the plan on"
    );
}

#[test]
fn full_mac_simulation_on_the_testbed_grid() {
    // Run the detailed MAC on real testbed wiring with three stations and
    // verify every measurement channel works together.
    let env = PaperEnv::new(PAPER_SEED);
    let outlets = [
        (1u16, env.testbed.station(1).outlet),
        (2u16, env.testbed.station(2).outlet),
        (6u16, env.testbed.station(6).outlet),
    ];
    let cfg = SimConfig {
        seed: 7,
        sniffer: true,
        ..SimConfig::default()
    };
    let mut sim = PlcSim::new(cfg, &env.testbed.grid, &outlets);
    let f1 = sim.add_flow(Flow::unicast(1, 2, TrafficSource::iperf_saturated()));
    let f2 = sim.add_flow(Flow::unicast(6, 2, TrafficSource::probe_150kbps()));
    sim.run_until(Time::from_secs(10));
    // Both flows delivered.
    let d1 = sim.take_delivered(f1);
    let d2 = sim.take_delivered(f2);
    assert!(d1.len() > 500, "saturated flow: {}", d1.len());
    assert!(d2.len() > 50, "probe flow: {}", d2.len());
    // The probe flow's rate is honored despite contention.
    let rate = d2.len() as f64 * 1500.0 * 8.0 / 10.0;
    assert!((rate - 150_000.0).abs() / 150_000.0 < 0.25, "rate={rate}");
    // Metrics flow through the MM interface.
    assert!(sim.int6krate(1, 2) > 10.0);
    assert!(sim.ampstat(1, 2).is_some());
    // The sniffer saw both links' SoFs.
    let srcs: std::collections::HashSet<u16> =
        sim.sniffer_records().iter().map(|r| r.sof.src).collect();
    assert!(srcs.contains(&1) && srcs.contains(&6));
}

#[test]
fn plc_asymmetry_exceeds_wifi_asymmetry_on_average() {
    // §5: PLC asymmetry is more severe than WiFi's. Compare capacity
    // ratios across a sample of links.
    let env = PaperEnv::new(PAPER_SEED);
    let now = Time::from_hours(14);
    let mut plc_ratios = Vec::new();
    let mut wifi_ratios = Vec::new();
    for (a, b) in [(1u16, 2u16), (5u16, 8u16), (0, 3), (9, 10), (4, 7), (2, 11)] {
        let mut fwd = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(a, b),
            EstimatorConfig::default(),
            1,
        );
        let mut rev = LinkProbeSim::new(
            env.plc_channel(a, b),
            PaperEnv::dir(b, a),
            EstimatorConfig::default(),
            2,
        );
        fwd.warmup(now, 8);
        rev.warmup(now, 8);
        let (f, r) = (fwd.ble_avg(), rev.ble_avg());
        if f > 1.0 && r > 1.0 {
            plc_ratios.push((f / r).max(r / f));
        }
        let w = env.wifi_channel(a, b);
        // WiFi asymmetry in the model comes only from temporal sampling.
        let f = w.snr_db(now);
        let r = w.snr_db(now + Duration::from_millis(3));
        let (cf, cr) = (
            wifi80211::Mcs::select(f, 1.5)
                .map(|m| m.phy_rate_mbps())
                .unwrap_or(0.0),
            wifi80211::Mcs::select(r, 1.5)
                .map(|m| m.phy_rate_mbps())
                .unwrap_or(0.0),
        );
        if cf > 0.0 && cr > 0.0 {
            wifi_ratios.push((cf / cr).max(cr / cf));
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(!plc_ratios.is_empty());
    assert!(
        mean(&plc_ratios) >= mean(&wifi_ratios) * 0.9,
        "plc={:?} wifi={:?}",
        plc_ratios,
        wifi_ratios
    );
}

#[test]
fn hybrid_layer_combines_real_medium_streams() {
    // PLC event sim + WiFi event sim + balancer: the full §7.4 data path.
    let env = PaperEnv::new(PAPER_SEED);
    let (a, b) = (1u16, 2u16);
    // PLC stream.
    let outlets = [
        (a, env.testbed.station(a).outlet),
        (b, env.testbed.station(b).outlet),
    ];
    let mut plc = PlcSim::new(SimConfig::default(), &env.testbed.grid, &outlets);
    let fp = plc.add_flow(Flow::unicast(a, b, TrafficSource::iperf_saturated()));
    plc.run_until(Time::from_secs(5));
    let plc_times: Vec<Time> = {
        let mut d = plc.take_delivered(fp);
        d.sort_by_key(|p| p.delivered);
        d.into_iter().map(|p| p.delivered).collect()
    };
    // WiFi stream.
    let positions = [
        (a, env.testbed.station(a).pos),
        (b, env.testbed.station(b).pos),
    ];
    let mut wifi = wifi80211::WifiSim::new(1, &env.testbed.floor, &positions);
    let fw = wifi.add_flow(wifi80211::WifiFlow {
        src: a,
        dst: b,
        source: TrafficSource::iperf_saturated(),
    });
    wifi.run_until(Time::from_secs(5));
    let wifi_times: Vec<Time> = {
        let mut d = wifi.take_delivered(fw);
        d.sort_by_key(|p| p.delivered);
        d.into_iter().map(|p| p.delivered).collect()
    };
    assert!(!plc_times.is_empty() && !wifi_times.is_empty());
    // Combine with capacity weights read from the mediums themselves; the
    // PLC one inverts the paper's Fig. 15 fit, BLE = 1.7·T − 0.65.
    let plc_cap = (plc.int6krate(a, b) + 0.65) / 1.7;
    let wifi_cap = wifi.capacity_mbps(a, b);
    let strategy = SplitStrategy::capacity_weighted(plc_cap, wifi_cap);
    let total = plc_times.len() + wifi_times.len();
    let combined = hybrid1905::combine_streams(&plc_times, &wifi_times, strategy, total, 5);
    let hybrid_rate = combined.mean_throughput_mbps(1500);
    let plc_rate = {
        let span = (plc_times[plc_times.len() - 1] - plc_times[0]).as_secs_f64();
        (plc_times.len() - 1) as f64 * 1500.0 * 8.0 / span / 1e6
    };
    assert!(
        hybrid_rate > plc_rate,
        "hybrid {hybrid_rate} must beat single-medium {plc_rate}"
    );
}

#[test]
fn testbed_seeds_produce_distinct_but_valid_floors() {
    for seed in [1u64, 2, 3] {
        let tb = Testbed::paper_floor(seed);
        assert_eq!(tb.stations.len(), 19);
        // Every same-network pair is electrically connected.
        for (a, b) in tb.plc_pairs() {
            assert!(tb.cable_distance_m(a, b).is_some(), "seed {seed}: {a}-{b}");
        }
        // Channels build for a sample pair and produce sane spectra.
        let ch = tb.plc_channel(0, 5, PlcTechnology::HpAv).expect("wired");
        let spec = ch.spectrum(Testbed::link_dir(0, 5), Time::from_hours(3));
        assert!(spec.snr_db.iter().all(|s| s.is_finite()));
    }
}

#[test]
fn quick_scale_experiment_suite_is_consistent() {
    // A smoke pass over several experiment runners, checking cross-figure
    // consistency: the Fig. 15 fit should predict Fig. 3's PLC
    // throughputs reasonably.
    let env = PaperEnv::new(PAPER_SEED);
    let f15 = electrifi::experiments::capacity::fig15(&env, Scale::Quick);
    let fit = f15.fit.expect("fit exists");
    for row in &f15.rows {
        let predicted_t = (row.ble - fit.intercept) / fit.slope;
        assert!(
            (predicted_t - row.throughput).abs() < 0.35 * row.throughput.max(5.0),
            "link {}-{}: T={} predicted={}",
            row.a,
            row.b,
            row.throughput,
            predicted_t
        );
    }
    // Network membership respected by experiments: all fig15 pairs are
    // same-network.
    for row in &f15.rows {
        assert_eq!(
            env.testbed.station(row.a).network,
            env.testbed.station(row.b).network
        );
    }
    let _ = env.network_members(PlcNetwork::B);
}

#[test]
fn experiment_results_serialize_to_json() {
    // The result structs are the library's data interchange; they must
    // round-trip through serde_json.
    let env = PaperEnv::new(PAPER_SEED);
    let fig19 = electrifi::experiments::capacity::fig19(&env, Scale::Quick);
    let json = serde_json::to_string(&fig19).expect("serialize");
    assert!(json.contains("overhead_reduction"));
    let back: electrifi::experiments::capacity::Fig19Result =
        serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.adaptive.probes, fig19.adaptive.probes);
}
