//! The IEEE 1905-style link-metric database.
//!
//! Stores, per directed link and per medium, the two metrics the standard
//! requires and the paper designs estimators for (§1: "We focus on two
//! metrics required by IEEE 1905: the PHY rate (capacity) and the packet
//! errors (loss rate)"). Because PLC links are **asymmetric** (§5), the
//! key is the *directed* pair — metrics must be estimated in both
//! directions.

use serde::{Deserialize, Serialize};
use simnet::time::Time;
use std::collections::HashMap;

/// Network technology of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Medium {
    /// Power-line (IEEE 1901 / HomePlug AV).
    Plc,
    /// Wireless (802.11n).
    Wifi,
}

/// A directed link on a specific medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId {
    /// Source station.
    pub src: u16,
    /// Destination station.
    pub dst: u16,
    /// Technology.
    pub medium: Medium,
}

impl LinkId {
    /// The same link in the opposite direction.
    pub fn reversed(self) -> LinkId {
        LinkId {
            src: self.dst,
            dst: self.src,
            medium: self.medium,
        }
    }
}

// JSON object keys must be strings, so a `HashMap<LinkId, _>` needs an
// explicit string form for its keys: `"src->dst/Medium"`.
impl serde::MapKey for LinkId {
    fn to_key(&self) -> String {
        let medium = match self.medium {
            Medium::Plc => "Plc",
            Medium::Wifi => "Wifi",
        };
        format!("{}->{}/{}", self.src, self.dst, medium)
    }

    fn from_key(s: &str) -> Result<Self, serde::Error> {
        let err = || serde::Error::msg(format!("invalid LinkId key: {s:?}"));
        let (pair, medium) = s.split_once('/').ok_or_else(err)?;
        let (src, dst) = pair.split_once("->").ok_or_else(err)?;
        Ok(LinkId {
            src: src.parse().map_err(|_| err())?,
            dst: dst.parse().map_err(|_| err())?,
            medium: match medium {
                "Plc" => Medium::Plc,
                "Wifi" => Medium::Wifi,
                _ => return Err(err()),
            },
        })
    }
}

/// One link-metric record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkMetric {
    /// Capacity estimate, Mb/s (BLE for PLC, MCS rate for WiFi).
    pub capacity_mbps: f64,
    /// Loss-rate metric (PBerr for PLC, MPDU error rate for WiFi), if
    /// known.
    pub loss_rate: Option<f64>,
    /// When the record was measured.
    pub updated_at: Time,
}

/// The metric database an IEEE 1905 abstraction layer would expose to
/// routing and load-balancing algorithms.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinkMetricsDb {
    records: HashMap<LinkId, LinkMetric>,
}

impl LinkMetricsDb {
    /// Empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert or replace the record for a link.
    pub fn update(&mut self, link: LinkId, metric: LinkMetric) {
        self.records.insert(link, metric);
    }

    /// Latest record for a link.
    pub fn get(&self, link: LinkId) -> Option<&LinkMetric> {
        self.records.get(&link)
    }

    /// Asymmetry ratio of a link: forward capacity over reverse capacity
    /// (`None` unless both directions are known). The paper observes
    /// ratios above 1.5 on ~30% of PLC pairs (§5).
    pub fn asymmetry(&self, link: LinkId) -> Option<f64> {
        let fwd = self.records.get(&link)?.capacity_mbps;
        let rev = self.records.get(&link.reversed())?.capacity_mbps;
        if rev <= 0.0 {
            return None;
        }
        Some(fwd / rev)
    }

    /// All links currently known.
    pub fn links(&self) -> impl Iterator<Item = (&LinkId, &LinkMetric)> {
        self.records.iter()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(src: u16, dst: u16) -> LinkId {
        LinkId {
            src,
            dst,
            medium: Medium::Plc,
        }
    }

    fn metric(cap: f64, at: Time) -> LinkMetric {
        LinkMetric {
            capacity_mbps: cap,
            loss_rate: Some(0.02),
            updated_at: at,
        }
    }

    #[test]
    fn update_and_get() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1), metric(100.0, Time::ZERO));
        assert_eq!(db.get(link(0, 1)).unwrap().capacity_mbps, 100.0);
        assert!(db.get(link(1, 0)).is_none(), "directions are distinct");
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn mediums_are_distinct() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1), metric(100.0, Time::ZERO));
        let wifi = LinkId {
            src: 0,
            dst: 1,
            medium: Medium::Wifi,
        };
        db.update(wifi, metric(65.0, Time::ZERO));
        assert_eq!(db.get(link(0, 1)).unwrap().capacity_mbps, 100.0);
        assert_eq!(db.get(wifi).unwrap().capacity_mbps, 65.0);
    }

    #[test]
    fn asymmetry_needs_both_directions() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1), metric(90.0, Time::ZERO));
        assert!(db.asymmetry(link(0, 1)).is_none());
        db.update(link(1, 0), metric(45.0, Time::ZERO));
        assert_eq!(db.asymmetry(link(0, 1)), Some(2.0));
        assert_eq!(db.asymmetry(link(1, 0)), Some(0.5));
    }

    #[test]
    fn zero_reverse_capacity_gives_none() {
        let mut db = LinkMetricsDb::new();
        db.update(link(0, 1), metric(90.0, Time::ZERO));
        db.update(link(1, 0), metric(0.0, Time::ZERO));
        assert!(db.asymmetry(link(0, 1)).is_none());
    }
}
