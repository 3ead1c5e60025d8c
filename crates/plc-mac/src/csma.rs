//! The IEEE 1901 CSMA/CA backoff engine with deferral counters.
//!
//! The 1901 backoff differs from 802.11 in one crucial way (paper §2.2):
//! a station escalates its backoff stage **not only after a collision but
//! also after sensing the medium busy**, regulated by the *deferral
//! counter* (DC). At each stage the station draws a backoff counter (BC)
//! uniformly from `[0, CW)` and initializes DC from a per-stage table.
//! When the medium is sensed busy:
//!
//! * if `DC > 0`, the station decrements DC (and freezes BC);
//! * if `DC == 0`, it jumps to the next stage — redrawing BC from a
//!   doubled CW — *without attempting transmission*.
//!
//! This self-throttling causes the short-term unfairness and jitter the
//! paper cites from \[19\], \[21\]. For the CA1 priority class (best-effort
//! data) the stage tables are `CW = [8, 16, 32, 64]`,
//! `DC = [0, 1, 3, 15]`.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-stage contention windows for the CA0/CA1 (data) priority class.
pub const CW_TABLE: [u32; 4] = [8, 16, 32, 64];
/// Per-stage initial deferral-counter values.
pub const DC_TABLE: [u32; 4] = [0, 1, 3, 15];

/// Backoff state machine of one station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffState {
    stage: usize,
    /// Backoff counter: idle slots to wait before transmitting.
    bc: u32,
    /// Deferral counter: busy events tolerated before escalating.
    dc: u32,
}

impl BackoffState {
    /// Enter stage 0 with a fresh draw (called when a new frame arrives at
    /// the head of the queue).
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut s = BackoffState {
            stage: 0,
            bc: 0,
            dc: 0,
        };
        s.enter_stage(rng, 0);
        s
    }

    fn enter_stage<R: Rng + ?Sized>(&mut self, rng: &mut R, stage: usize) {
        let stage = stage.min(CW_TABLE.len() - 1);
        self.stage = stage;
        self.bc = (simnet::rng::Distributions::uniform(rng) * CW_TABLE[stage] as f64) as u32;
        self.dc = DC_TABLE[stage];
    }

    /// Current backoff stage.
    pub fn stage(&self) -> usize {
        self.stage
    }

    /// Current backoff counter (idle slots remaining).
    pub fn backoff_slots(&self) -> u32 {
        self.bc
    }

    /// Current deferral counter.
    pub fn deferral_counter(&self) -> u32 {
        self.dc
    }

    /// Ready to transmit in this slot?
    pub fn ready(&self) -> bool {
        self.bc == 0
    }

    /// Count down `slots` idle slots (saturating at ready).
    pub fn elapse_idle(&mut self, slots: u32) {
        self.bc = self.bc.saturating_sub(slots);
    }

    /// The medium was sensed busy (another station transmitted) while this
    /// station was counting down. 1901 rule: decrement DC, or escalate the
    /// stage when DC is exhausted.
    pub fn on_busy<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.dc > 0 {
            self.dc -= 1;
        } else {
            self.enter_stage(rng, self.stage + 1);
        }
    }

    /// The station transmitted and the frame collided (no SACK): escalate.
    pub fn on_collision<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.enter_stage(rng, self.stage + 1);
    }

    /// The station transmitted successfully: back to stage 0 for the next
    /// frame.
    pub fn on_success<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.enter_stage(rng, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn fresh_state_is_stage_zero_with_small_bc() {
        let mut r = rng();
        for _ in 0..100 {
            let s = BackoffState::new(&mut r);
            assert_eq!(s.stage(), 0);
            assert!(s.backoff_slots() < CW_TABLE[0]);
            assert_eq!(s.deferral_counter(), DC_TABLE[0]);
        }
    }

    #[test]
    fn bc_draws_cover_the_window() {
        let mut r = rng();
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[BackoffState::new(&mut r).backoff_slots() as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all CW0 values should occur");
    }

    #[test]
    fn idle_slots_count_down_to_ready() {
        let mut r = rng();
        let mut s = BackoffState::new(&mut r);
        let bc = s.backoff_slots();
        s.elapse_idle(bc);
        assert!(s.ready());
        s.elapse_idle(10); // saturates
        assert!(s.ready());
    }

    #[test]
    fn busy_decrements_dc_then_escalates() {
        let mut r = rng();
        let mut s = BackoffState::new(&mut r);
        // Stage 0 has DC = 0: the very first busy event escalates.
        assert_eq!(s.deferral_counter(), 0);
        s.on_busy(&mut r);
        assert_eq!(s.stage(), 1);
        assert_eq!(s.deferral_counter(), DC_TABLE[1]);
        // Stage 1 has DC = 1: one busy tolerated, second escalates.
        s.on_busy(&mut r);
        assert_eq!(s.stage(), 1);
        assert_eq!(s.deferral_counter(), 0);
        s.on_busy(&mut r);
        assert_eq!(s.stage(), 2);
    }

    #[test]
    fn stage_saturates_at_last() {
        let mut r = rng();
        let mut s = BackoffState::new(&mut r);
        for _ in 0..50 {
            s.on_collision(&mut r);
        }
        assert_eq!(s.stage(), CW_TABLE.len() - 1);
        assert!(s.backoff_slots() < CW_TABLE[3]);
    }

    #[test]
    fn success_resets_to_stage_zero() {
        let mut r = rng();
        let mut s = BackoffState::new(&mut r);
        s.on_collision(&mut r);
        s.on_collision(&mut r);
        assert_eq!(s.stage(), 2);
        s.on_success(&mut r);
        assert_eq!(s.stage(), 0);
        assert!(s.backoff_slots() < CW_TABLE[0]);
    }

    #[test]
    fn mean_bc_grows_with_stage() {
        let mut r = rng();
        let mean_at_stage = |stage: usize, r: &mut StdRng| -> f64 {
            let mut acc = 0u64;
            for _ in 0..2000 {
                let mut s = BackoffState::new(r);
                for _ in 0..stage {
                    s.on_collision(r);
                }
                acc += s.backoff_slots() as u64;
            }
            acc as f64 / 2000.0
        };
        let m0 = mean_at_stage(0, &mut r);
        let m3 = mean_at_stage(3, &mut r);
        assert!((m0 - 3.5).abs() < 0.5, "m0={m0}");
        assert!((m3 - 31.5).abs() < 3.0, "m3={m3}");
    }
}
