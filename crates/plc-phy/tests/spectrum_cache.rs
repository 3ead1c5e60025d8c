//! The spectrum cache must be invisible: for every time, phase,
//! direction, link seed, and appliance-schedule state, the cached
//! evaluator must reproduce the uncached reference **bit for bit**.

use plc_phy::carrier::PlcTechnology;
use plc_phy::channel::{LinkDir, PlcChannel, SnrSpectrum};
use proptest::prelude::*;
use simnet::appliance::ApplianceKind;
use simnet::grid::{Grid, NodeId};
use simnet::schedule::Schedule;
use simnet::time::{Duration, Time};

/// A multi-tap route whose loads sit on every schedule family, so random
/// times exercise epoch transitions: A — J1 — J2 — B with a duty-cycled
/// fridge, office-hours PCs, building lights, and a bare branch.
fn busy_link(seed: u64) -> (Grid, NodeId, NodeId) {
    let mut g = Grid::new();
    let a = g.add_outlet("A");
    let j1 = g.add_junction("J1");
    let j2 = g.add_junction("J2");
    let b = g.add_outlet("B");
    g.connect(a, j1, 12.0);
    g.connect(j1, j2, 18.0);
    g.connect(j2, b, 9.0);

    let fridge = g.add_outlet("fridge");
    g.connect(j1, fridge, 2.5);
    g.attach(
        fridge,
        ApplianceKind::Fridge,
        Schedule::DutyCycle {
            on_s: 120,
            off_s: 300,
            seed,
        },
    );

    let desk = g.add_outlet("desk");
    g.connect(j2, desk, 4.0);
    g.attach(
        desk,
        ApplianceKind::DesktopPc,
        Schedule::OfficeHours { seed },
    );
    g.attach(
        desk,
        ApplianceKind::Monitor,
        Schedule::OfficeHours { seed: seed ^ 7 },
    );

    let lights = g.add_outlet("lights");
    g.connect(j2, lights, 3.0);
    g.attach(lights, ApplianceKind::Lighting, Schedule::BuildingLights);

    (g, a, b)
}

fn channel(seed: u64, tech: PlcTechnology) -> PlcChannel {
    let (g, a, b) = busy_link(seed);
    PlcChannel::from_grid(&g, a, b, tech, seed).expect("busy_link is connected")
}

fn assert_bitwise_eq(reference: &SnrSpectrum, cached: &SnrSpectrum, what: &str) {
    assert_eq!(
        reference.snr_db.len(),
        cached.snr_db.len(),
        "{what}: length"
    );
    for (i, (r, c)) in reference.snr_db.iter().zip(&cached.snr_db).enumerate() {
        assert_eq!(
            r.to_bits(),
            c.to_bits(),
            "{what}: carrier {i} diverged ({r} vs {c})"
        );
    }
}

proptest! {
    /// Cached == reference, bitwise, over random times (spanning weeks,
    /// so every schedule family flips), phases, directions, and seeds.
    /// The cached evaluator is queried twice — the second call takes the
    /// warm epoch-hit path, which must also be bit-identical.
    #[test]
    fn cached_spectrum_matches_reference_bitwise(
        t_ms in 0u64..14 * 24 * 3_600_000,
        phase in 0.0f64..1.0,
        ab in any::<bool>(),
        seed in 1u64..64,
    ) {
        let ch = channel(seed, PlcTechnology::HpAv);
        let dir = if ab { LinkDir::AtoB } else { LinkDir::BtoA };
        let t = Time::from_millis(t_ms);
        let reference = ch.spectrum_at_phase_reference(dir, t, phase);
        let cold = ch.spectrum_at_phase(dir, t, phase);
        assert_bitwise_eq(&reference, &cold, "cold");
        let warm = ch.spectrum_at_phase(dir, t, phase);
        assert_bitwise_eq(&reference, &warm, "warm");
    }

    /// A warm cache survives schedule flips: walk one channel through a
    /// time series that crosses epoch boundaries (duty cycles, office
    /// hours, lights-out) and check every sample against the reference.
    #[test]
    fn cache_tracks_schedule_flips_bitwise(
        start_ms in 0u64..7 * 24 * 3_600_000,
        step_s in 30u64..7_200,
        seed in 1u64..32,
    ) {
        let ch = channel(seed, PlcTechnology::HpAv);
        let mut buf = SnrSpectrum::empty();
        let mut t = Time::from_millis(start_ms);
        for k in 0..12u64 {
            let phase = (k % 8) as f64 / 8.0;
            ch.spectrum_at_phase_into(LinkDir::AtoB, t, phase, &mut buf);
            let reference = ch.spectrum_at_phase_reference(LinkDir::AtoB, t, phase);
            assert_bitwise_eq(&reference, &buf, "series");
            t += Duration::from_secs(step_s);
        }
    }
}

/// An empty-echo epoch — a bare cable with no taps at all — exercises
/// the kernels with zero geometry groups: the interference planes stay
/// at the direct ray (re = 1, im = 0), mp_db is exactly 0 dB, and the
/// cached arm must still match the reference bitwise.
#[test]
fn empty_echo_epoch_matches_reference() {
    let mut g = Grid::new();
    let a = g.add_outlet("A");
    let b = g.add_outlet("B");
    g.connect(a, b, 55.0);
    let ch = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 3).expect("connected");
    for hour in [2u64, 11, 20] {
        let t = Time::from_hours(hour);
        let reference = ch.spectrum_at_phase_reference(LinkDir::AtoB, t, 0.4);
        let cached = ch.spectrum_at_phase(LinkDir::AtoB, t, 0.4);
        assert_bitwise_eq(&reference, &cached, "empty-echo");
    }
}

/// An all-loads-off epoch: every schedule on the busy link that *can*
/// be off is off late on a Saturday night (office hours and sporadic
/// activity skip weekends, building lights cut at 21:00). The off-state
/// impedances still reflect, so the epoch is non-trivial — it just has
/// to match the reference like any other.
#[test]
fn all_loads_off_epoch_matches_reference() {
    let mut g = Grid::new();
    let a = g.add_outlet("A");
    let j = g.add_junction("J");
    let b = g.add_outlet("B");
    g.connect(a, j, 14.0);
    g.connect(j, b, 11.0);
    let desk = g.add_outlet("desk");
    g.connect(j, desk, 4.0);
    g.attach(
        desk,
        ApplianceKind::DesktopPc,
        Schedule::OfficeHours { seed: 5 },
    );
    let lights = g.add_outlet("lights");
    g.connect(j, lights, 3.0);
    g.attach(lights, ApplianceKind::Lighting, Schedule::BuildingLights);
    let ch = PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, 11).expect("connected");
    // Day 5 (Saturday) 23:00 — weekend night, everything off.
    let t = Time::from_hours(5 * 24 + 23);
    assert!(!Schedule::OfficeHours { seed: 5 }.is_on(t));
    assert!(!Schedule::BuildingLights.is_on(t));
    let reference = ch.spectrum_at_phase_reference(LinkDir::BtoA, t, 0.2);
    let cold = ch.spectrum_at_phase(LinkDir::BtoA, t, 0.2);
    assert_bitwise_eq(&reference, &cold, "all-off cold");
    let warm = ch.spectrum_at_phase(LinkDir::BtoA, t + Duration::from_millis(40), 0.2);
    let reference_warm =
        ch.spectrum_at_phase_reference(LinkDir::BtoA, t + Duration::from_millis(40), 0.2);
    assert_bitwise_eq(&reference_warm, &warm, "all-off warm");
}

/// AV500's wider plan (2153 carriers) goes through the same cache.
#[test]
fn av500_cached_matches_reference() {
    let ch = channel(9, PlcTechnology::HpAv500);
    for hour in [0u64, 9, 13, 22] {
        let t = Time::from_hours(hour);
        let reference = ch.spectrum_at_phase_reference(LinkDir::BtoA, t, 0.3);
        let cached = ch.spectrum_at_phase(LinkDir::BtoA, t, 0.3);
        assert_bitwise_eq(&reference, &cached, "av500");
    }
}
