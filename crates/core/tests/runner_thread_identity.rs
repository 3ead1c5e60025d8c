//! The fanned-out runners produce the same bytes at any thread count.
//!
//! Figs. 17–21 measure their links through `sweep::par_map`; each link is
//! seeded by itself and results come back in item order, so a run forced
//! sequential must serialize to exactly the same JSON as a parallel one.
//! `ELECTRIFI_THREADS` is process-global, which is why this is the only
//! test in its binary.

use electrifi::experiments::{capacity, hybrid, retrans, Scale, PAPER_SEED};
use electrifi::PaperEnv;

/// Every fanned-out runner's output, serialized, under `threads` workers.
fn runner_json(env: &PaperEnv, threads: &str) -> Vec<(&'static str, String)> {
    std::env::set_var("ELECTRIFI_THREADS", threads);
    let json = |v: serde_json::Result<String>| v.expect("runner output serializes");
    vec![
        (
            "fig17",
            json(serde_json::to_string(&capacity::fig17(env, Scale::Quick))),
        ),
        (
            "fig18",
            json(serde_json::to_string(&capacity::fig18(env, Scale::Quick))),
        ),
        (
            "fig19",
            json(serde_json::to_string(&capacity::fig19(env, Scale::Quick))),
        ),
        (
            "fig20",
            json(serde_json::to_string(&hybrid::fig20(env, Scale::Quick))),
        ),
        (
            "fig21",
            json(serde_json::to_string(&retrans::fig21(env, Scale::Quick))),
        ),
    ]
}

#[test]
fn fanned_out_runners_are_byte_identical_across_thread_counts() {
    let env = PaperEnv::new(PAPER_SEED);
    let sequential = runner_json(&env, "1");
    let parallel = runner_json(&env, "2");
    std::env::remove_var("ELECTRIFI_THREADS");
    for ((name, seq), (_, par)) in sequential.iter().zip(&parallel) {
        assert!(seq == par, "{name}: JSON differs between 1 and 2 threads");
    }
}
