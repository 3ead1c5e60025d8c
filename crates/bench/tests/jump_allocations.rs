//! Allocation probe of `simnet::rng::advance`, the jump the channel
//! estimator makes past its deferred draws on every composed frame.
//! Once the jump table of a word count exists, advancing by that count
//! allocates nothing, on any thread, and every thread reads the one
//! table built for the process.
//!
//! The counting allocator is process-global, so this binary holds a
//! single test: no other test thread allocates while it counts.

use allocprobe::CountingAlloc;
use rand::rngs::StdRng;
use rand::SeedableRng;
use simnet::rng::{advance, jump, Jump};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Two words per carrier, 917 HPAV carriers, three updated slots.
const WORDS: u64 = 2 * 917 * 3;

/// `advance(rng, words)` `times` times; returns the allocator events.
fn allocations(rng: &mut StdRng, words: u64, times: usize) -> u64 {
    let before = ALLOC.snapshot();
    for _ in 0..times {
        advance(rng, words);
    }
    before.delta(&ALLOC.snapshot()).events()
}

fn address(j: &'static Jump) -> usize {
    j as *const Jump as usize
}

#[test]
fn advance_allocates_nothing_once_its_table_exists() {
    let mut rng = StdRng::seed_from_u64(2015);
    // The probe is live: the first use of a word count builds its table.
    assert!(allocations(&mut rng, WORDS, 1) > 0);
    assert_eq!(allocations(&mut rng, WORDS, 1_000), 0);

    let here = address(jump(WORDS));
    assert_eq!(address(jump(WORDS)), here, "a lookup rebuilt the table");
    assert_eq!(jump(WORDS).words(), WORDS);

    // A fresh thread, as a parallel sweep starts for each pass, finds
    // the same table and advances without allocating.
    let (there, fresh_thread_allocs) = std::thread::spawn(|| {
        let mut rng = StdRng::seed_from_u64(1);
        let allocs = allocations(&mut rng, WORDS, 1_000);
        (address(jump(WORDS)), allocs)
    })
    .join()
    .expect("thread");
    assert_eq!(there, here, "a new thread rebuilt the table");
    assert_eq!(fresh_thread_allocs, 0);
}
