//! End-to-end tests over a real unix socket: submit → execute → fetch,
//! the byte-identity contract against the CLI path, worker-death
//! recovery, a run far longer than any polling interval, and the error
//! taxonomy (including a document nested past the JSON parser's depth
//! limit).

use electrifi_scenario::campaign::{run_campaign, write_artifacts, CampaignSpec};
use electrifi_serve::server::{Bind, ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A 3-run campaign (1 generator scenario × 3 seeds × 1 workload) small
/// enough to finish in seconds but sharded enough (shard size 1) to
/// spread across workers.
const CAMPAIGN_JSON: &str = r#"{
  "name": "e2e",
  "scenarios": [
    {
      "name": "gen",
      "grid": {
        "generator": {
          "floors": 1,
          "boards_per_floor": 1,
          "offices_per_board": 3,
          "stations_per_board": 2
        }
      }
    }
  ],
  "seeds": [1, 2, 3],
  "workloads": [
    {
      "name": "tiny",
      "start_hour": 10,
      "duration_s": 2,
      "sample_ms": 500,
      "max_pairs": 2
    }
  ],
  "experiments": ["probing"]
}"#;

fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efi-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp root");
    dir
}

fn config_for(root: &Path) -> ServeConfig {
    let mut c = ServeConfig::new(Bind::Unix(root.join("ctl.sock")), root.join("out"));
    c.workers = 2;
    c.shard_size = 1;
    c
}

/// Write the CLI path's artifacts for the same campaign document into
/// `dir` and return the bytes of its `summary.json`.
fn cli_artifacts(dir: &Path) -> Vec<u8> {
    let spec = CampaignSpec::from_json_str(CAMPAIGN_JSON, Path::new(".")).expect("spec parses");
    let summary = run_campaign(&spec, 1, None).expect("cli campaign runs");
    write_artifacts(&summary, dir).expect("cli artifacts write");
    std::fs::read(dir.join("summary.json")).expect("cli summary.json")
}

/// One counter of a `GET /metrics` snapshot.
fn counter(client: &electrifi_serve::HttpClient, name: &str) -> u64 {
    let metrics = client.request("GET", "/metrics", None).expect("metrics");
    let mtext = metrics.text();
    mtext
        .split(&format!("\"{name}\","))
        .nth(1)
        .and_then(|rest| {
            rest.trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or_else(|| panic!("counter {name} missing: {mtext}"))
}

fn submit(client: &electrifi_serve::HttpClient) -> String {
    submit_doc(client, CAMPAIGN_JSON, 3)
}

fn submit_doc(client: &electrifi_serve::HttpClient, doc: &str, runs: usize) -> String {
    let resp = client
        .request("POST", "/campaigns", Some(doc.as_bytes()))
        .expect("submit");
    assert_eq!(resp.status, 202, "{}", resp.text());
    let text = resp.text();
    // The admission doc leads with `{"id": "cN", ...}`.
    let id = text
        .split("\"id\":")
        .nth(1)
        .and_then(|rest| rest.split('"').nth(1))
        .expect("admission doc carries an id")
        .to_string();
    assert!(text.contains("\"status\":\"queued\""), "{text}");
    assert!(text.contains(&format!("\"total_runs\":{runs}")), "{text}");
    id
}

fn wait_done(client: &electrifi_serve::HttpClient, id: &str) -> String {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let resp = client
            .request("GET", &format!("/campaigns/{id}"), None)
            .expect("status");
        assert_eq!(resp.status, 200);
        let text = resp.text();
        if text.contains("\"status\":\"done\"") {
            return text;
        }
        assert!(
            !text.contains("\"status\":\"failed\"") && !text.contains("\"status\":\"cancelled\""),
            "campaign ended badly: {text}"
        );
        assert!(Instant::now() < deadline, "timed out; last status {text}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn served_summary_is_byte_identical_to_cli() {
    let root = temp_root("identity");
    let server = Server::start(config_for(&root)).expect("server starts");
    let client = server.client();

    let id = submit(&client);
    let status = wait_done(&client, &id);
    assert!(status.contains("\"completed_runs\":3"), "{status}");

    // THE contract: served bytes == what `campaign` would have written.
    let results = client
        .request("GET", &format!("/campaigns/{id}/results"), None)
        .expect("results");
    assert_eq!(results.status, 200);
    let cli_dir = root.join("cli");
    assert_eq!(
        results.body,
        cli_artifacts(&cli_dir),
        "served summary.json must be byte-identical to the CLI's"
    );
    // A repeated fetch re-reads the same file: still the same bytes.
    let again = client
        .request("GET", &format!("/campaigns/{id}/results"), None)
        .expect("results again");
    assert_eq!(again.body, results.body);

    // Per-run manifest fetch: the very bytes `write_artifacts` writes
    // next to the CLI's summary.
    let manifest = client
        .request(
            "GET",
            &format!("/campaigns/{id}/results?manifest=gen-s1-tiny"),
            None,
        )
        .expect("manifest");
    assert_eq!(manifest.status, 200, "{}", manifest.text());
    let cli_manifest =
        std::fs::read(cli_dir.join("gen-s1-tiny.manifest.json")).expect("cli manifest");
    assert_eq!(
        manifest.body, cli_manifest,
        "served manifest must be byte-identical to the CLI's"
    );

    // The event stream replays the retained ring and ends at close.
    let mut lines = Vec::new();
    let status_code = client
        .stream_lines(&format!("/campaigns/{id}/events"), |line| {
            lines.push(line.to_string());
            true
        })
        .expect("events stream");
    assert_eq!(status_code, 200);
    assert!(
        lines.iter().any(|l| l.contains("\"status\":\"done\"")),
        "stream must end with the done status: {lines:?}"
    );
    assert!(lines.iter().any(|l| l.contains("\"event\":\"run_done\"")));

    // Metrics reflect the completed job in the standard snapshot shape.
    let metrics = client.request("GET", "/metrics", None).expect("metrics");
    let mtext = metrics.text();
    assert!(mtext.contains("\"serve.queue.completed\""), "{mtext}");
    assert!(mtext.contains("\"serve.workers.runs_executed\""), "{mtext}");

    server.shutdown(false);
    server.wait().expect("clean drain");
    // The supervisor's final write leaves metrics on disk for tooling.
    assert!(root.join("out").join("server.metrics.json").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_worker_recovers_with_identical_bytes() {
    let root = temp_root("kill");
    let mut config = config_for(&root);
    // The worker that picks up the middle run dies mid-shard; the shard
    // is re-admitted and resumed from its checkpoint by a replacement.
    config.kill_run_marker = Some("gen-s2-tiny".to_string());
    let server = Server::start(config).expect("server starts");
    let client = server.client();

    let id = submit(&client);
    wait_done(&client, &id);

    let results = client
        .request("GET", &format!("/campaigns/{id}/results"), None)
        .expect("results");
    assert_eq!(results.status, 200);
    assert_eq!(
        results.body,
        cli_artifacts(&root.join("cli")),
        "summary must be byte-identical even after a worker died mid-campaign"
    );

    // The one-shot kill is the only death: nothing else declares a
    // worker dead.
    assert_eq!(counter(&client, "serve.workers.deaths"), 1);
    assert_eq!(counter(&client, "serve.workers.shards_requeued"), 1);

    server.shutdown(false);
    server.wait().expect("clean drain");
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
