//! Tone maps and the Bit Loading Estimate (BLE).
//!
//! A *tone map* assigns a modulation to every OFDM carrier, plus a FEC
//! rate and the PB error rate the map was designed for. The destination of
//! a link estimates the channel and sends tone maps back to the source
//! (paper §2.1). Up to 7 tone maps exist per link direction: one per
//! tone-map **slot** of the half mains cycle (HomePlug AV uses 6, because
//! noise varies along the AC cycle — the paper's *invariance scale*), plus
//! one default ROBO map for sound/broadcast frames.
//!
//! The **BLE** is IEEE 1901 Eq. (1), reproduced as the paper's Definition 1:
//!
//! ```text
//! BLE = B × R × (1 − PBerr) / Tsym
//! ```
//!
//! with `B` the total bits per OFDM symbol over all carriers, `R` the FEC
//! code rate, `PBerr` the PB error rate *expected when the map was
//! generated*, and `Tsym` the symbol duration. BLE is carried in the
//! start-of-frame delimiter of every frame and is the paper's capacity
//! metric (§7).

use crate::carrier::SYMBOL_US;
use crate::modulation::{FecRate, Modulation, ROBO_REPETITION};
use serde::{Deserialize, Serialize};

/// Number of tone-map slots over the half mains cycle in HomePlug AV.
pub const TONEMAP_SLOTS: usize = 6;

/// A bit-loading estimate in Mb/s (bits per µs).
pub type Ble = f64;

/// A per-carrier modulation table with its coding parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToneMap {
    /// Modulation for each carrier of the plan.
    pub carriers: Vec<Modulation>,
    /// FEC code rate.
    pub fec: FecRate,
    /// PB error rate the map was designed for. Fixed until the map is
    /// invalidated by a newer one (paper Definition 1).
    pub design_pberr: f64,
    /// ROBO repetition factor (1 for data maps, 4 for the default map).
    pub repetition: u32,
    /// Identification number, analogous to the 802.11n MCS index
    /// (incremented by the estimator on every regeneration).
    pub id: u32,
}

impl Default for ToneMap {
    /// An empty placeholder map (no carriers): exists so scratch buffers
    /// can `mem::take` a map and restore it without allocating. Never a
    /// valid map to transmit with — `info_bits_per_symbol()` is 0.
    fn default() -> Self {
        ToneMap {
            carriers: Vec::new(),
            fec: FecRate::Half,
            design_pberr: 0.0,
            repetition: 1,
            id: 0,
        }
    }
}

impl ToneMap {
    /// Overwrite `self` with `other`, reusing the carrier buffer's
    /// allocation (`Vec::clone_from` keeps capacity). The hot MAC loop
    /// copies one tone map per frame; this keeps that copy heap-free
    /// once the buffer has warmed to the carrier count.
    pub fn copy_from(&mut self, other: &ToneMap) {
        self.carriers.clone_from(&other.carriers);
        self.fec = other.fec;
        self.design_pberr = other.design_pberr;
        self.repetition = other.repetition;
        self.id = other.id;
    }

    /// Build a data tone map from per-carrier SNR estimates: each carrier
    /// gets the most aggressive modulation it supports after a safety
    /// `margin_db`.
    pub fn from_snr(
        snr_db: &[f64],
        margin_db: f64,
        fec: FecRate,
        design_pberr: f64,
        id: u32,
    ) -> Self {
        ToneMap {
            carriers: snr_db
                .iter()
                .map(|&s| Modulation::select(s, margin_db))
                .collect(),
            fec,
            design_pberr,
            repetition: 1,
            id,
        }
    }

    /// The default ROBO map: QPSK everywhere, rate-1/2 code, 4× repetition.
    /// Used for sound frames, broadcast and multicast (paper §2.1, §8.1).
    pub fn robo(n_carriers: usize) -> Self {
        ToneMap {
            carriers: vec![Modulation::Qpsk; n_carriers],
            fec: FecRate::Half,
            design_pberr: 0.01,
            repetition: ROBO_REPETITION,
            id: 0,
        }
    }

    /// Total bits per OFDM symbol over all carriers (the `B` of Eq. 1),
    /// before coding and repetition.
    pub fn bits_per_symbol(&self) -> u64 {
        self.carriers.iter().map(|m| m.bits() as u64).sum()
    }

    /// Information bits per OFDM symbol after FEC and repetition.
    pub fn info_bits_per_symbol(&self) -> f64 {
        self.bits_per_symbol() as f64 * self.fec.as_f64() / self.repetition as f64
    }

    /// The Bit Loading Estimate of IEEE 1901 Eq. (1), in Mb/s.
    pub fn ble(&self) -> Ble {
        self.info_bits_per_symbol() * (1.0 - self.design_pberr) / SYMBOL_US
    }

    /// OFDM symbols needed to carry `payload_bits` information bits.
    pub fn symbols_for_bits(&self, payload_bits: u64) -> u64 {
        let per_symbol = self.info_bits_per_symbol();
        if per_symbol <= 0.0 {
            return u64::MAX;
        }
        // The small epsilon keeps exactly-divisible payloads from rounding
        // up on floating-point dust.
        ((payload_bits as f64 / per_symbol) - 1e-9).ceil().max(1.0) as u64
    }
}

/// The full tone-map state of one link direction: one map per slot plus
/// the default ROBO map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ToneMapSet {
    /// Data tone maps, one per tone-map slot of the half mains cycle.
    pub slots: Vec<ToneMap>,
    /// The default (ROBO) map.
    pub default: ToneMap,
}

impl ToneMapSet {
    /// A fresh set where every slot still uses the ROBO default (the state
    /// right after devices join the network or are reset).
    pub fn all_robo(n_carriers: usize) -> Self {
        ToneMapSet {
            slots: vec![ToneMap::robo(n_carriers); TONEMAP_SLOTS],
            default: ToneMap::robo(n_carriers),
        }
    }

    /// BLE of a specific slot (the `BLEs` of the paper §6).
    pub fn ble_slot(&self, slot: usize) -> Ble {
        self.slots[slot % self.slots.len()].ble()
    }

    /// Average BLE over all slots: the `BLE̅ = Σ BLEs / L` the paper uses
    /// as the capacity estimate (§6.2, §7.1) and that devices report via
    /// management messages (`int6krate`).
    pub fn ble_avg(&self) -> Ble {
        self.slots.iter().map(|m| m.ble()).sum::<f64>() / self.slots.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ble_formula_matches_eq1() {
        // Hand-computed: 100 carriers at 16-QAM (400 bits), rate 1/2,
        // design PBerr 0.1 => BLE = 400*0.5*0.9/46.52.
        let tm = ToneMap {
            carriers: vec![Modulation::Qam16; 100],
            fec: FecRate::Half,
            design_pberr: 0.1,
            repetition: 1,
            id: 1,
        };
        let expect = 400.0 * 0.5 * 0.9 / SYMBOL_US;
        assert!((tm.ble() - expect).abs() < 1e-12);
    }

    #[test]
    fn max_hpav_ble_is_about_150mbps() {
        // All 917 carriers at 1024-QAM with the 16/21 code: the paper's
        // "highest PLC data-rate is 150 Mbps".
        let tm = ToneMap {
            carriers: vec![Modulation::Qam1024; 917],
            fec: FecRate::SixteenTwentyFirsts,
            design_pberr: 0.02,
            repetition: 1,
            id: 1,
        };
        let ble = tm.ble();
        assert!((145.0..152.0).contains(&ble), "ble={ble}");
    }

    #[test]
    fn robo_ble_is_a_few_mbps() {
        let robo = ToneMap::robo(917);
        let ble = robo.ble();
        assert!((3.0..7.0).contains(&ble), "robo ble={ble}");
    }

    #[test]
    fn from_snr_loads_carriers_individually() {
        let snr = vec![0.0, 5.0, 12.0, 40.0];
        let tm = ToneMap::from_snr(&snr, 0.0, FecRate::SixteenTwentyFirsts, 0.02, 3);
        assert_eq!(
            tm.carriers,
            vec![
                Modulation::Off,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam1024
            ]
        );
        assert_eq!(tm.id, 3);
    }

    #[test]
    fn symbols_for_bits_rounds_up() {
        let tm = ToneMap {
            carriers: vec![Modulation::Qpsk; 100], // 200 raw bits/symbol
            fec: FecRate::Half,                    // 100 info bits/symbol
            design_pberr: 0.0,
            repetition: 1,
            id: 0,
        };
        assert_eq!(tm.symbols_for_bits(100), 1);
        assert_eq!(tm.symbols_for_bits(101), 2);
        assert_eq!(tm.symbols_for_bits(1), 1);
        // An all-off map can carry nothing.
        let dead = ToneMap {
            carriers: vec![Modulation::Off; 10],
            fec: FecRate::Half,
            design_pberr: 0.0,
            repetition: 1,
            id: 0,
        };
        assert_eq!(dead.symbols_for_bits(8), u64::MAX);
    }

    #[test]
    fn tonemap_set_averages_slots() {
        let mut set = ToneMapSet::all_robo(100);
        // Make slot 0 much faster than the others.
        set.slots[0] = ToneMap {
            carriers: vec![Modulation::Qam1024; 100],
            fec: FecRate::SixteenTwentyFirsts,
            design_pberr: 0.0,
            repetition: 1,
            id: 1,
        };
        let avg = set.ble_avg();
        assert!(set.ble_slot(0) > avg);
        assert!(set.ble_slot(1) < avg);
        let manual: f64 =
            (0..TONEMAP_SLOTS).map(|s| set.ble_slot(s)).sum::<f64>() / TONEMAP_SLOTS as f64;
        assert!((avg - manual).abs() < 1e-12);
    }

    #[test]
    fn slot_indexing_wraps() {
        let set = ToneMapSet::all_robo(10);
        assert_eq!(set.ble_slot(0), set.ble_slot(TONEMAP_SLOTS));
    }
}
