//! Electrical appliances: the actors behind PLC channel variation.
//!
//! The paper attributes *spatial* variation to the impedance of appliances
//! attached between transmitter and receiver (impedance mismatches create
//! multipath reflections, §5), and *temporal* variation to the noise those
//! appliances inject — mains-synchronous noise within the cycle (§6.1),
//! noise-level fluctuation across cycles (§6.2), and switching appliances
//! on/off over minutes-to-hours (§6.3, driven by human activity).
//!
//! Each appliance therefore carries:
//! * an **impedance** (how strong a reflection point it is when on),
//! * a **noise profile** (broadband level + mains-synchronous component +
//!   impulsive event rate),
//! * a reference to a [`crate::schedule::Schedule`] saying when it is on.

use serde::{Deserialize, Serialize};

/// Categories of appliances found in the office testbed, each with a
/// distinct electrical signature (impedances and noise levels are
/// representative values from the PLC noise-measurement literature, e.g.
/// Guzelgoz et al. 2010 which the paper cites as \[9\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ApplianceKind {
    /// Fluorescent/halogen office lighting bank; strong mains-synchronous
    /// noise near the zero crossings, switched off building-wide at 9 pm.
    Lighting,
    /// Desktop computer with a switched-mode PSU: broadband noise, moderate
    /// impedance mismatch.
    DesktopPc,
    /// LCD monitor: mild noise, mild mismatch.
    Monitor,
    /// Laser printer: large transient load, strong impulsive noise when
    /// active.
    LaserPrinter,
    /// Coffee machine: resistive heater, heavy load when on, bursty duty
    /// cycle around breaks.
    CoffeeMachine,
    /// Refrigerator: compressor duty cycle around the clock; impulsive
    /// noise at compressor starts.
    Fridge,
    /// Phone/laptop charger: tiny switched-mode supply, high-frequency
    /// noise, small mismatch.
    Charger,
    /// Microwave oven: severe broadband noise while running, short runs.
    Microwave,
    /// Network/IT equipment (switches, routers): always on, stable mild
    /// noise.
    ItEquipment,
    /// Electric space heater: near-short impedance when on, quiet
    /// otherwise; strong attenuator of nearby signals.
    SpaceHeater,
}

/// Electrical signature of an appliance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApplianceProfile {
    /// Impedance magnitude (ohms) presented to the line when the appliance
    /// is ON. The cable's characteristic impedance is ~85 Ω; values far
    /// from it create strong reflections.
    pub impedance_on_ohms: f64,
    /// Impedance magnitude when OFF (most devices look near-open).
    pub impedance_off_ohms: f64,
    /// Broadband noise the appliance injects when on, as a dB increase over
    /// the ambient line-noise floor measured *at the appliance's outlet*.
    pub noise_db: f64,
    /// Extra noise in the mains-synchronous peaks (dB above the appliance's
    /// own broadband level). Drives invariance-scale (tone-map-slot)
    /// variation.
    pub sync_noise_db: f64,
    /// Phase (0..1 of the half mains cycle) where the synchronous noise
    /// peaks.
    pub sync_phase: f64,
    /// Mean rate of impulsive noise events while on (events per second).
    pub impulse_rate_hz: f64,
}

impl ApplianceKind {
    /// The canonical electrical signature of this appliance kind.
    pub fn profile(self) -> ApplianceProfile {
        use ApplianceKind::*;
        match self {
            Lighting => ApplianceProfile {
                impedance_on_ohms: 25.0,
                impedance_off_ohms: 1e5,
                noise_db: 6.0,
                sync_noise_db: 8.0,
                sync_phase: 0.05,
                impulse_rate_hz: 0.0,
            },
            DesktopPc => ApplianceProfile {
                impedance_on_ohms: 40.0,
                impedance_off_ohms: 5e4,
                noise_db: 5.0,
                sync_noise_db: 2.0,
                sync_phase: 0.35,
                impulse_rate_hz: 0.02,
            },
            Monitor => ApplianceProfile {
                impedance_on_ohms: 120.0,
                impedance_off_ohms: 8e4,
                noise_db: 2.5,
                sync_noise_db: 1.0,
                sync_phase: 0.5,
                impulse_rate_hz: 0.0,
            },
            LaserPrinter => ApplianceProfile {
                impedance_on_ohms: 15.0,
                impedance_off_ohms: 4e4,
                noise_db: 7.0,
                sync_noise_db: 3.0,
                sync_phase: 0.6,
                impulse_rate_hz: 0.2,
            },
            CoffeeMachine => ApplianceProfile {
                impedance_on_ohms: 12.0,
                impedance_off_ohms: 6e4,
                noise_db: 4.0,
                sync_noise_db: 1.5,
                sync_phase: 0.2,
                impulse_rate_hz: 0.05,
            },
            Fridge => ApplianceProfile {
                impedance_on_ohms: 30.0,
                impedance_off_ohms: 30.0, // compressor cycles, plug stays loaded
                noise_db: 4.5,
                sync_noise_db: 2.0,
                sync_phase: 0.8,
                impulse_rate_hz: 0.01,
            },
            Charger => ApplianceProfile {
                impedance_on_ohms: 300.0,
                impedance_off_ohms: 1e5,
                noise_db: 3.0,
                sync_noise_db: 4.0,
                sync_phase: 0.15,
                impulse_rate_hz: 0.0,
            },
            Microwave => ApplianceProfile {
                impedance_on_ohms: 8.0,
                impedance_off_ohms: 7e4,
                noise_db: 12.0,
                sync_noise_db: 5.0,
                sync_phase: 0.45,
                impulse_rate_hz: 0.5,
            },
            ItEquipment => ApplianceProfile {
                impedance_on_ohms: 60.0,
                impedance_off_ohms: 60.0,
                noise_db: 2.0,
                sync_noise_db: 0.5,
                sync_phase: 0.7,
                impulse_rate_hz: 0.0,
            },
            SpaceHeater => ApplianceProfile {
                impedance_on_ohms: 5.0,
                impedance_off_ohms: 9e4,
                noise_db: 1.0,
                sync_noise_db: 0.5,
                sync_phase: 0.9,
                impulse_rate_hz: 0.01,
            },
        }
    }

    /// All kinds, for enumeration in tests and generators.
    pub const ALL: [ApplianceKind; 10] = [
        ApplianceKind::Lighting,
        ApplianceKind::DesktopPc,
        ApplianceKind::Monitor,
        ApplianceKind::LaserPrinter,
        ApplianceKind::CoffeeMachine,
        ApplianceKind::Fridge,
        ApplianceKind::Charger,
        ApplianceKind::Microwave,
        ApplianceKind::ItEquipment,
        ApplianceKind::SpaceHeater,
    ];
}

/// Characteristic impedance assumed for indoor mains cable (ohms).
pub const CABLE_Z0_OHMS: f64 = 85.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_physical() {
        for kind in ApplianceKind::ALL {
            let p = kind.profile();
            assert!(p.impedance_on_ohms > 0.0, "{kind:?}");
            assert!(p.impedance_off_ohms > 0.0, "{kind:?}");
            assert!(p.noise_db >= 0.0, "{kind:?}");
            assert!(p.sync_noise_db >= 0.0, "{kind:?}");
            assert!((0.0..1.0).contains(&p.sync_phase), "{kind:?}");
            assert!(p.impulse_rate_hz >= 0.0, "{kind:?}");
        }
    }

    #[test]
    fn microwave_is_noisiest() {
        let micro = ApplianceKind::Microwave.profile().noise_db;
        for kind in ApplianceKind::ALL {
            assert!(kind.profile().noise_db <= micro);
        }
    }
}
