//! Mesh routing over hybrid metrics: survey the floor, fill the IEEE
//! 1905-style metric database, and compute quality-aware multi-hop routes
//! (paper §4.3: "mesh configurations, hence routing and load balancing
//! algorithms, are needed for seamless connectivity"; its reference [17]
//! found multi-hop routes that alternate technologies perform well).
//!
//! ```sh
//! cargo run --release --example mesh_routing
//! ```

use electrifi::experiments::PAPER_SEED;
use electrifi::{LinkProbeSim, PaperEnv};
use electrifi_testbed::PlcNetwork;
use hybrid1905::metrics::{LinkId, LinkMetric, LinkMetricsDb, Medium};
use hybrid1905::routing::{Router, RouterConfig};
use plc_phy::estimation::EstimatorConfig;
use simnet::time::Time;
use wifi80211::throughput::expected_goodput_mbps;

fn main() {
    let env = PaperEnv::new(PAPER_SEED);
    let now = Time::from_hours(10);
    let members = env.network_members(PlcNetwork::A);

    // --- Survey: probe both mediums on every directed pair (the O(n^2)
    // probing §4.3 discusses; a real deployment would pace this with the
    // adaptive policy of §7.3).
    println!(
        "Surveying network A ({} stations) on both mediums...",
        members.len()
    );
    let mut db = LinkMetricsDb::new();
    for &a in &members {
        for &b in &members {
            if a == b {
                continue;
            }
            // PLC: steady-state BLE -> throughput estimate.
            let mut plc = LinkProbeSim::new(
                env.plc_channel(a, b),
                PaperEnv::dir(a, b),
                EstimatorConfig::default(),
                0x0E5 ^ ((a as u64) << 8) ^ b as u64,
            );
            let steady = plc.warmup(now, 6);
            let t_plc = plc.throughput_now(steady);
            if t_plc > 0.5 {
                db.update(
                    LinkId {
                        src: a,
                        dst: b,
                        medium: Medium::Plc,
                    },
                    LinkMetric {
                        capacity_mbps: t_plc,
                        loss_rate: plc.pberr_cumulative(),
                        updated_at: now,
                    },
                );
            }
            // WiFi.
            let t_wifi = expected_goodput_mbps(&env.wifi_channel(a, b), now, 1);
            if t_wifi > 0.5 {
                db.update(
                    LinkId {
                        src: a,
                        dst: b,
                        medium: Medium::Wifi,
                    },
                    LinkMetric {
                        capacity_mbps: t_wifi,
                        loss_rate: None,
                        updated_at: now,
                    },
                );
            }
        }
    }
    println!("metric database: {} directed medium-links\n", db.len());

    // --- Route between every pair; report multi-hop and alternating
    // routes.
    let router = Router::new(RouterConfig::default());
    let mut multi_hop = 0;
    let mut alternating = 0;
    let mut total = 0;
    let mut example: Option<(u16, u16, hybrid1905::Route)> = None;
    for &a in &members {
        for &b in &members {
            if a == b {
                continue;
            }
            total += 1;
            if let Some(route) = router.best_route(&db, a, b, now) {
                if route.hops.len() > 1 {
                    multi_hop += 1;
                    if route.alternates_mediums() && example.is_none() {
                        example = Some((a, b, route.clone()));
                    }
                }
                if route.alternates_mediums() {
                    alternating += 1;
                }
            }
        }
    }
    println!("routes computed for {total} pairs:");
    println!("  multi-hop best routes : {multi_hop}");
    println!("  alternating mediums   : {alternating}");
    if let Some((a, b, route)) = example {
        println!("\nexample alternating route {a} -> {b}:");
        for hop in &route.hops {
            println!(
                "  {} -> {} via {:?} (ETT {:.2} ms)",
                hop.link.src,
                hop.link.dst,
                hop.link.medium,
                hop.ett_s * 1e3
            );
        }
        println!("  total ETT {:.2} ms", route.total_ett_s * 1e3);
    }
}
