//! End-to-end tests over a real unix socket: the byte-identity contract
//! against the CLI path, worker-death recovery (both rows of the
//! determinism matrix, see `invariance.rs`), a run far longer than any
//! polling interval, a gated campaign's verdict rollup, back-to-back
//! submissions, and the error taxonomy (including a document nested
//! past the JSON parser's depth limit).

#[path = "../../scenario/tests/matrix/mod.rs"]
mod matrix;

mod common;

use common::{counter, submit_doc, temp_root, wait_done};
use electrifi_serve::server::{Bind, ServeConfig, Server};
use std::path::Path;
use std::time::{Duration, Instant};

/// A 3-run campaign (1 generator scenario × 3 seeds × 1 workload) small
/// enough to finish in seconds but sharded enough (shard size 1) to
/// spread across workers.
const CAMPAIGN_JSON: &str = r#"{
  "name": "e2e",
  "scenarios": [{"name": "gen", "grid": {"generator": {
    "floors": 1, "boards_per_floor": 1, "offices_per_board": 3, "stations_per_board": 2}}}],
  "seeds": [1, 2, 3],
  "workloads": [{"name": "tiny", "start_hour": 10, "duration_s": 2,
                 "sample_ms": 500, "max_pairs": 2}],
  "experiments": ["probing"]
}"#;

fn config_for(root: &Path) -> ServeConfig {
    let mut c = ServeConfig::new(Bind::Unix(root.join("ctl.sock")), root.join("out"));
    c.workers = 2;
    c.shard_size = 1;
    c
}

fn submit(client: &electrifi_serve::HttpClient) -> String {
    submit_doc(client, CAMPAIGN_JSON, 3)
}

#[test]
fn served_summary_is_byte_identical_to_cli() {
    let root = temp_root("identity");
    let want = matrix::reference(&root.join("cli"));
    let got = common::served(&root, None);
    matrix::assert_reproduces("served", &got, &want);
    let _ = std::fs::remove_dir_all(&root);
}

/// The worker that picks up a middle run dies mid-shard; the shard is
/// re-admitted and resumed from its checkpoint by a replacement.
#[test]
fn killed_worker_recovers_with_identical_bytes() {
    let root = temp_root("kill");
    let want = matrix::reference(&root.join("cli"));
    let got = common::served(&root, Some("gen-a-s2-w"));
    matrix::assert_reproduces("killed worker", &got, &want);
    let _ = std::fs::remove_dir_all(&root);
}

/// A run may take as long as it takes: one 3600 s × 6-pair probing run
/// lasts several times the pool's 100 ms metrics tick, and its worker
/// is never declared dead while it computes.
#[test]
fn a_long_run_finishes_without_a_worker_death() {
    let doc = CAMPAIGN_JSON
        .replace("[1, 2, 3]", "[1]")
        .replace("\"duration_s\": 2", "\"duration_s\": 3600")
        .replace("\"max_pairs\": 2", "\"max_pairs\": 6");
    let root = temp_root("long-run");
    let config = config_for(&root);
    let workers = config.workers as u64;
    let server = Server::start(config).expect("server starts");
    let client = server.client();

    let started = Instant::now();
    let id = submit_doc(&client, &doc, 1);
    wait_done(&client, &id);
    assert!(
        started.elapsed() > Duration::from_millis(300),
        "the run must outlast several 100 ms ticks: {:?}",
        started.elapsed()
    );
    assert_eq!(counter(&client, "serve.workers.deaths"), 0);
    assert_eq!(counter(&client, "serve.workers.spawned"), workers);
    assert_eq!(counter(&client, "serve.queue.completed"), 1);

    server.shutdown(false);
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&root);
}

/// The committed gated campaign, served: once done, its status document
/// rolls up the runs' verdicts as a pass with no failures.
#[test]
fn gated_campaign_status_carries_its_verdict() {
    let scenarios = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let doc = std::fs::read_to_string(scenarios.join("disturbance-campaign.json"))
        .expect("campaign file");
    let root = temp_root("verdict");
    let mut config = config_for(&root);
    // The campaign names its scenario by sibling path.
    config.scenario_root = scenarios;
    let server = Server::start(config).expect("server starts");
    let client = server.client();
    let id = submit_doc(&client, &doc, 1);
    let status = wait_done(&client, &id);
    assert!(status.contains("\"verdict\":\"pass\""), "{status}");
    assert!(status.contains("\"verdict_failures\":0"), "{status}");
    server.shutdown(false);
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn error_taxonomy_and_queue_backpressure() {
    let root = temp_root("errors");
    let mut config = config_for(&root);
    config.queue_cap = 1;
    let server = Server::start(config).expect("server starts");
    let client = server.client();

    // Unknown resources and verbs.
    let r = client.request("GET", "/campaigns/zzz", None).expect("req");
    assert_eq!(r.status, 404);
    let r = client.request("DELETE", "/campaigns", None).expect("req");
    assert_eq!(r.status, 405);
    let r = client.request("GET", "/nonsense", None).expect("req");
    assert_eq!(r.status, 404);

    // Invalid documents are rejected by the admission validator.
    let r = client
        .request("POST", "/campaigns", Some(b"{not json"))
        .expect("req");
    assert_eq!(r.status, 400);
    let r = client
        .request(
            "POST",
            "/campaigns",
            Some(br#"{"name":"x","scenarios":[],"seeds":[],"workloads":[],"experiments":[]}"#),
        )
        .expect("req");
    assert_eq!(r.status, 400, "{}", r.text());
    // Run names become file names and event-line strings, so a workload
    // name that is not a file name is refused before any run executes.
    let bad = CAMPAIGN_JSON.replace(r#""name": "tiny""#, r#""name": "a/b\"c""#);
    let r = client
        .request("POST", "/campaigns", Some(bad.as_bytes()))
        .expect("req");
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("workloads[0].name"), "{}", r.text());

    // Queue backpressure: with the only slot occupied, the next submit
    // is turned away with 429 + Retry-After.
    let id = submit(&client);
    let r = client
        .request("POST", "/campaigns", Some(CAMPAIGN_JSON.as_bytes()))
        .expect("req");
    assert_eq!(r.status, 429, "{}", r.text());
    assert!(
        r.headers.iter().any(|(k, _)| k == "retry-after"),
        "{:?}",
        r.headers
    );

    // Results of an unfinished job conflict.
    let r = client
        .request("GET", &format!("/campaigns/{id}/results"), None)
        .expect("req");
    assert!(
        r.status == 409 || r.status == 200,
        "unfinished results must 409 (or 200 if it already finished): {}",
        r.status
    );

    wait_done(&client, &id);
    // Cancelling a finished job conflicts; a second slot is now free.
    let r = client
        .request("POST", &format!("/campaigns/{id}/cancel"), None)
        .expect("req");
    assert_eq!(r.status, 409, "{}", r.text());
    let id2 = submit(&client);
    wait_done(&client, &id2);

    // Draining refuses new work but the shutdown call itself succeeds.
    let r = client
        .request("POST", "/shutdown", Some(br#"{"mode":"drain"}"#))
        .expect("req");
    assert_eq!(r.status, 202);
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deeply_nested_submission_is_rejected_and_the_server_lives() {
    let root = temp_root("nested");
    let server = Server::start(config_for(&root)).expect("server starts");
    let client = server.client();
    // ~40 KB: well under the body cap, far past the parser's depth limit.
    let depth = 20_000;
    let doc = format!(
        "{{\"name\":\"x\",\"scenarios\":{}{}}}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let r = client
        .request("POST", "/campaigns", Some(doc.as_bytes()))
        .expect("req");
    assert_eq!(r.status, 400, "{}", r.text());
    let r = client
        .request("GET", "/campaigns/bogus", None)
        .expect("req");
    assert_eq!(r.status, 404);
    let r = client
        .request("POST", "/shutdown", Some(br#"{"mode":"drain"}"#))
        .expect("req");
    assert_eq!(r.status, 202);
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn back_to_back_submissions_never_lose_their_job_data() {
    // One seed of the e2e campaign: a single one-run shard per job.
    let doc = CAMPAIGN_JSON.replace("[1, 2, 3]", "[1]");
    let root = temp_root("submit-race");
    let mut config = config_for(&root);
    // Many idle workers poll the queue while submissions are admitted;
    // each job's data must be there before any of them leases its shard.
    config.workers = 8;
    config.queue_cap = 1_000;
    let server = Server::start(config).expect("server starts");
    let client = server.client();

    let ids: Vec<String> = (0..64).map(|_| submit_doc(&client, &doc, 1)).collect();
    for id in &ids {
        let status = wait_done(&client, id);
        assert!(!status.contains("no job data"), "{status}");
    }

    server.shutdown(false);
    server.wait().expect("clean drain");
    let _ = std::fs::remove_dir_all(&root);
}
