//! Link classification: the good/average/bad classes the probing
//! policy needs (§7.3).

use serde::{Deserialize, Serialize};

/// Link-quality classes with the paper's §7.3 thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkClass {
    /// Average BLE below 60 Mb/s.
    Bad,
    /// Average BLE between 60 and 100 Mb/s.
    Average,
    /// Average BLE above 100 Mb/s.
    Good,
}

impl LinkClass {
    /// Classify from an average BLE (Mb/s).
    pub fn of_ble(avg_ble_mbps: f64) -> LinkClass {
        if avg_ble_mbps < 60.0 {
            LinkClass::Bad
        } else if avg_ble_mbps > 100.0 {
            LinkClass::Good
        } else {
            LinkClass::Average
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_thresholds() {
        assert_eq!(LinkClass::of_ble(30.0), LinkClass::Bad);
        assert_eq!(LinkClass::of_ble(60.0), LinkClass::Average);
        assert_eq!(LinkClass::of_ble(80.0), LinkClass::Average);
        assert_eq!(LinkClass::of_ble(100.1), LinkClass::Good);
    }
}
