//! Property-based tests for the PLC PHY.

use plc_phy::error::pb_error_prob;
use plc_phy::modulation::{FecRate, Modulation};
use plc_phy::tonemap::{ToneMap, TONEMAP_SLOTS};
use plc_phy::SnrSpectrum;
use proptest::prelude::*;

fn arb_snrs(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-20.0f64..60.0, n..=n)
}

proptest! {
    /// Modulation selection is monotone in SNR for any margin.
    #[test]
    fn select_monotone(snr in -30f64..70.0, margin in 0f64..10.0, delta in 0f64..30.0) {
        let lo = Modulation::select(snr, margin);
        let hi = Modulation::select(snr + delta, margin);
        prop_assert!(hi.bits() >= lo.bits());
    }

    /// Symbol error probabilities are valid probabilities and decrease
    /// with SNR.
    #[test]
    fn ser_is_probability(snr in -40f64..80.0) {
        for m in Modulation::LADDER {
            let p = m.symbol_error_prob(snr);
            prop_assert!((0.0..=1.0).contains(&p));
            let p_better = m.symbol_error_prob(snr + 5.0);
            prop_assert!(p_better <= p + 1e-12);
        }
    }

    /// BLE is non-negative, bounded by the all-1024-QAM ceiling, and
    /// monotone under per-carrier SNR improvement.
    #[test]
    fn ble_bounded_and_monotone(snrs in arb_snrs(100), lift in 0f64..20.0) {
        let map = ToneMap::from_snr(&snrs, 2.0, FecRate::SixteenTwentyFirsts, 0.02, 1);
        let ceiling = ToneMap {
            carriers: vec![Modulation::Qam1024; 100],
            fec: FecRate::SixteenTwentyFirsts,
            design_pberr: 0.0,
            repetition: 1,
            id: 0,
        }
        .ble();
        prop_assert!(map.ble() >= 0.0);
        prop_assert!(map.ble() <= ceiling + 1e-9);
        let lifted: Vec<f64> = snrs.iter().map(|s| s + lift).collect();
        let better = ToneMap::from_snr(&lifted, 2.0, FecRate::SixteenTwentyFirsts, 0.02, 2);
        prop_assert!(better.ble() + 1e-9 >= map.ble());
    }

    /// PBerr is a probability for any map/spectrum pair and never
    /// improves when the channel degrades uniformly.
    #[test]
    fn pberr_valid_and_monotone(snrs in arb_snrs(60), drop in 0f64..15.0) {
        let map = ToneMap::from_snr(&snrs, 3.0, FecRate::SixteenTwentyFirsts, 0.02, 1);
        let now = SnrSpectrum::from_db(snrs.clone());
        let degraded = SnrSpectrum::from_db(snrs.iter().map(|s| s - drop).collect());
        let p0 = pb_error_prob(&map, &now);
        let p1 = pb_error_prob(&map, &degraded);
        prop_assert!((0.0..=1.0).contains(&p0));
        prop_assert!((0.0..=1.0).contains(&p1));
        prop_assert!(p1 + 1e-12 >= p0);
    }

    /// symbols_for_bits is consistent: the chosen symbol count carries at
    /// least the requested bits, and one fewer symbol would not.
    #[test]
    fn symbols_for_bits_tight(snrs in arb_snrs(50), payload_bits in 1u64..2_000_000) {
        let map = ToneMap::from_snr(&snrs, 2.0, FecRate::SixteenTwentyFirsts, 0.02, 1);
        let per = map.info_bits_per_symbol();
        prop_assume!(per > 0.0);
        let n = map.symbols_for_bits(payload_bits);
        prop_assert!(n as f64 * per >= payload_bits as f64 - 1e-6);
        if n > 1 {
            let slack = (n - 1) as f64 * per - payload_bits as f64;
            prop_assert!(slack < 1e-6, "one fewer symbol would fit: slack={slack}");
        }
    }

    /// Estimator: BLE readings are finite and within the technology
    /// ceiling after arbitrary observation/regeneration sequences.
    #[test]
    fn estimator_stays_in_range(
        seed in any::<u64>(),
        snr in -10f64..50.0,
        steps in 1usize..40,
        n_sym in 1u64..64,
        n_pbs in 1u32..80,
    ) {
        use plc_phy::estimation::EstimatorConfig;
        use plc_phy::ChannelEstimator;
        use rand::SeedableRng;
        use simnet::time::Time;
        let mut est = ChannelEstimator::new(EstimatorConfig::default(), 80);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spec = SnrSpectrum::from_db(vec![snr; 80]);
        let ceiling = ToneMap {
            carriers: vec![Modulation::Qam1024; 80],
            fec: FecRate::SixteenTwentyFirsts,
            design_pberr: 0.0,
            repetition: 1,
            id: 0,
        }
        .ble();
        for k in 0..steps {
            est.observe(&mut rng, k % TONEMAP_SLOTS, &spec, n_sym, n_pbs);
            est.maybe_regenerate(Time::from_secs(k as u64 * 31), 0.0);
            let ble = est.ble_avg();
            prop_assert!(ble.is_finite());
            prop_assert!((0.0..=ceiling + 1e-9).contains(&ble));
        }
    }
}

#[test]
fn spectra_finite_on_random_grids() {
    // A structured-random grid fuzz: chains with random appliances must
    // always produce finite spectra in both directions at any hour.
    use plc_phy::channel::{LinkDir, PlcChannel};
    use plc_phy::PlcTechnology;
    use simnet::appliance::ApplianceKind;
    use simnet::grid::Grid;
    use simnet::schedule::Schedule;
    use simnet::time::Time;
    for seed in 0u64..20 {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let mut prev = a;
        let hops = 2 + (seed % 6) as usize;
        for k in 0..hops {
            let j = g.add_junction(format!("j{k}"));
            g.connect(prev, j, 3.0 + (seed as f64 * 1.7 + k as f64 * 5.0) % 20.0);
            let o = g.add_outlet(format!("o{k}"));
            g.connect(j, o, 1.0 + (k as f64 % 4.0));
            let kind = ApplianceKind::ALL[(seed as usize + k) % ApplianceKind::ALL.len()];
            g.attach(
                o,
                kind,
                Schedule::OfficeHours {
                    seed: seed ^ k as u64,
                },
            );
            prev = j;
        }
        let b = g.add_outlet("b");
        g.connect(prev, b, 4.0);
        let ch =
            PlcChannel::from_grid(&g, a, b, PlcTechnology::HpAv, seed).expect("connected chain");
        for hour in [2u64, 11, 21] {
            for dir in [LinkDir::AtoB, LinkDir::BtoA] {
                let spec = ch.spectrum(dir, Time::from_hours(hour));
                assert!(
                    spec.snr_db.iter().all(|s| s.is_finite()),
                    "seed {seed} hour {hour}"
                );
            }
        }
    }
}
