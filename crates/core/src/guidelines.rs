//! Table 3: the paper's guidelines for PLC link-metric estimation, as
//! typed policy data a hybrid implementation can consume directly.

use hybrid1905::probing::ProbingPolicy;
use serde::{Deserialize, Serialize};
use simnet::time::Duration;

/// One guideline row of Table 3.
///
/// Static policy text can be serialized (for reports) but not
/// deserialized: `&'static str` has nowhere to borrow from.
#[derive(Debug, Clone, Serialize)]
pub struct Guideline {
    /// The policy name (Table 3, column "Policy").
    pub policy: &'static str,
    /// The guideline/explanation.
    pub guideline: &'static str,
    /// Paper sections backing it.
    pub sections: &'static str,
}

/// The full Table 3.
pub fn table3() -> Vec<Guideline> {
    vec![
        Guideline {
            policy: "Metrics",
            guideline: "BLE and PBerr, defined by IEEE 1901.",
            sections: "7, 8.1",
        },
        Guideline {
            policy: "Unicast probing only",
            guideline: "Broadcast probing cannot be used, as it does not \
                        give any information on link quality.",
            sections: "8.1",
        },
        Guideline {
            policy: "Shortest time-scale",
            guideline: "BLE should be averaged over the mains cycle.",
            sections: "6.1",
        },
        Guideline {
            policy: "Size of probes",
            guideline: "Larger than one PB (or one OFDM symbol) to avoid \
                        inaccurate convergence of the rate adaptation \
                        algorithm.",
            sections: "7.2",
        },
        Guideline {
            policy: "Frequency of probes",
            guideline: "Should be adapted to link quality for lower \
                        overhead.",
            sections: "6.2, 6.3, 7.3",
        },
        Guideline {
            policy: "Burstiness of probes",
            guideline: "Can tackle a potential inaccurate convergence of \
                        the channel estimation algorithm or the \
                        sensitivity of link metrics to background traffic.",
            sections: "7.2, 8.2",
        },
        Guideline {
            policy: "Asymmetry in probing",
            guideline: "There is both spatial and temporal variation \
                        asymmetry in PLC links; probe both directions \
                        (bidirectional traffic such as TCP routes both \
                        ways).",
            sections: "5, 6.2",
        },
    ]
}

/// The actionable probe-plan derived from Table 3: what a quality-aware
/// hybrid layer should actually send on a PLC link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbePlan {
    /// Probe payload size in bytes (must exceed one PB).
    pub probe_bytes: u32,
    /// Probes are sent in bursts of this many packets (1 = single).
    pub burst_len: u32,
    /// Probing interval for this link.
    pub interval: Duration,
    /// Probe both directions independently.
    pub bidirectional: bool,
}

impl ProbePlan {
    /// Build the recommended plan for a link with the given average BLE
    /// and an optional background-traffic concern (contended networks
    /// should burst, §8.2).
    pub fn recommended(avg_ble_mbps: f64, contended: bool) -> ProbePlan {
        let policy = ProbingPolicy::paper_adaptive();
        ProbePlan {
            // Comfortably above one PB: the paper uses 1300-1500 B.
            probe_bytes: 1300,
            burst_len: if contended { 20 } else { 1 },
            interval: policy.interval_for(avg_ble_mbps),
            bidirectional: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plc_phy::estimation::PB_BITS;

    #[test]
    fn table3_has_all_seven_policies() {
        let t = table3();
        assert_eq!(t.len(), 7);
        let names: Vec<&str> = t.iter().map(|g| g.policy).collect();
        for expected in [
            "Metrics",
            "Unicast probing only",
            "Shortest time-scale",
            "Size of probes",
            "Frequency of probes",
            "Burstiness of probes",
            "Asymmetry in probing",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
    }

    #[test]
    fn recommended_plan_follows_the_rules() {
        let good = ProbePlan::recommended(120.0, false);
        // Table 3 size rule: a probe must not fit in one PB.
        assert!(good.probe_bytes as u64 * 8 > PB_BITS);
        assert_eq!(good.interval, Duration::from_secs(80));
        assert_eq!(good.burst_len, 1);
        assert!(good.bidirectional);
        let bad_contended = ProbePlan::recommended(30.0, true);
        assert_eq!(bad_contended.interval, Duration::from_secs(5));
        assert_eq!(bad_contended.burst_len, 20);
    }
}
