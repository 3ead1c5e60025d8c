//! Property-based tests for the IEEE 1901 MAC building blocks.

use plc_mac::csma::{BackoffState, CW_TABLE, DC_TABLE};
use plc_mac::pb::{pbs_for_packet, QueuedPb, Reassembler, PB_PAYLOAD_BYTES};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::time::Time;

proptest! {
    /// PB segmentation covers the payload exactly: count × 512 ≥ bytes,
    /// and one fewer PB would not fit (except the 1-PB minimum).
    #[test]
    fn pb_count_is_tight(bytes in 0u32..100_000) {
        let n = pbs_for_packet(bytes);
        prop_assert!(n >= 1);
        let cover = n as u64 * PB_PAYLOAD_BYTES as u64;
        prop_assert!(cover >= bytes as u64);
        if n > 1 {
            let smaller = (n - 1) as u64 * PB_PAYLOAD_BYTES as u64;
            prop_assert!(smaller < bytes as u64);
        }
    }

    /// Reassembly completes exactly once per packet for any arrival
    /// permutation of its PBs.
    #[test]
    fn reassembly_completes_under_any_order(
        bytes in 1u32..20_000,
        perm_seed in any::<u64>(),
    ) {
        let pbs = QueuedPb::segment(9, bytes, Time::ZERO);
        let mut order: Vec<usize> = (0..pbs.len()).collect();
        // Deterministic Fisher-Yates from the seed.
        let mut state = perm_seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut r = Reassembler::new();
        let mut completions = 0;
        for (k, &idx) in order.iter().enumerate() {
            r.accept(pbs[idx], Time::from_micros(k as u64));
            completions += r.take_completed().len();
        }
        prop_assert_eq!(completions, 1);
        prop_assert_eq!(r.pending_count(), 0);
    }

    /// Backoff state machine invariants hold under arbitrary event
    /// sequences: stage within table bounds, BC below the stage's CW,
    /// DC below the stage's table entry.
    #[test]
    fn backoff_invariants(seed in any::<u64>(), events in proptest::collection::vec(0u8..4, 0..200)) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut s = BackoffState::new(&mut rng);
        for e in events {
            match e {
                0 => s.elapse_idle(1),
                1 => s.on_busy(&mut rng),
                2 => s.on_collision(&mut rng),
                _ => s.on_success(&mut rng),
            }
            prop_assert!(s.stage() < CW_TABLE.len());
            prop_assert!(s.backoff_slots() < CW_TABLE[s.stage()]);
            prop_assert!(s.deferral_counter() <= DC_TABLE[s.stage()]);
        }
    }

    /// The analytic saturation throughput is bounded by the BLE, zero for
    /// dead links, and decreasing in contention and loss.
    #[test]
    fn analytic_throughput_sane(
        ble in 0f64..160.0,
        pberr in 0f64..1.0,
        n in 1usize..8,
    ) {
        let t = plc_mac::saturation_throughput_mbps(ble, pberr, n);
        prop_assert!(t >= 0.0);
        prop_assert!(t <= ble + 1e-9);
        let t_more_loss = plc_mac::saturation_throughput_mbps(ble, (pberr + 0.1).min(1.0), n);
        prop_assert!(t_more_loss <= t + 1e-9);
        let t_more_contention = plc_mac::saturation_throughput_mbps(ble, pberr, n + 1);
        prop_assert!(t_more_contention <= t + 1e-9);
    }
}
