//! Helpers shared by the tests that drive a real server over its unix
//! socket, including the determinism matrix's served row. A binary that
//! declares this module also declares `matrix` (the harness in
//! `scenario/tests/matrix`).

use crate::matrix::{spec, Artifacts, CAMPAIGN, RUNS};
use electrifi_serve::server::{Bind, ServeConfig, Server};
use electrifi_serve::HttpClient;
use simnet::obs::MetricsSnapshot;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A fresh, empty directory under the system temp dir.
pub fn temp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("efi-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp root");
    dir
}

/// One counter of a `GET /metrics` snapshot.
pub fn counter(client: &HttpClient, name: &str) -> u64 {
    let metrics = client.request("GET", "/metrics", None).expect("metrics");
    let snap: MetricsSnapshot = serde_json::from_str(&metrics.text()).expect("metrics parse");
    let found = snap.counters.into_iter().find(|(n, _)| n == name);
    found.unwrap_or_else(|| panic!("counter {name} missing")).1
}

/// Submit `doc`, expecting admission of a `runs`-run job; returns its id.
pub fn submit_doc(client: &HttpClient, doc: &str, runs: usize) -> String {
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

/// Poll the job until it is `done` (panicking if it fails, is
/// cancelled or takes over two minutes); returns the final status doc.
pub fn wait_done(client: &HttpClient, id: &str) -> String {
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

/// The matrix's served row: the campaign on 2 workers with one-run
/// shards, where the worker that picks up the run named `kill` dies
/// once. Returns the fetched `summary.json` and manifests.
pub fn served(dir: &Path, kill: Option<&str>) -> Artifacts {
    let mut config = ServeConfig::new(Bind::Unix(dir.join("ctl.sock")), dir.join("out"));
    config.workers = 2;
    config.shard_size = 1;
    config.kill_run_marker = kill.map(str::to_string);
    let server = Server::start(config).expect("server starts");
    let client = server.client();
    let id = submit_doc(&client, CAMPAIGN, RUNS);
    let status = wait_done(&client, &id);
    let completed = format!("\"completed_runs\":{RUNS}");
    assert!(status.contains(&completed), "{status}");

    let fetch = |query: &str| {
        let resp = client
            .request("GET", &format!("/campaigns/{id}/results{query}"), None)
            .expect("results");
        assert_eq!(resp.status, 200, "{}", resp.text());
        resp.body
    };
    let mut out: Artifacts = vec![("summary.json".to_string(), fetch(""))];
    // A repeated fetch re-reads the same file.
    assert_eq!(fetch(""), out[0].1);
    for run in spec().expand() {
        let manifest = fetch(&format!("?manifest={}", run.run_name));
        out.push((format!("{}.manifest.json", run.run_name), manifest));
    }
    out.sort();

    // The event stream replays the retained ring and ends at close.
    let mut lines = Vec::new();
    let code = client
        .stream_lines(&format!("/campaigns/{id}/events"), |line| {
            lines.push(line.to_string());
            true
        })
        .expect("events stream");
    assert_eq!(code, 200);
    assert!(lines.iter().any(|l| l.contains("\"status\":\"done\"")));
    assert!(lines.iter().any(|l| l.contains("\"event\":\"run_done\"")));
    // The one-shot kill is the only death: nothing else declares a
    // worker dead.
    let deaths = kill.is_some() as u64;
    assert_eq!(counter(&client, "serve.workers.deaths"), deaths);
    assert_eq!(counter(&client, "serve.workers.shards_requeued"), deaths);
    assert_eq!(counter(&client, "serve.queue.completed"), 1);
    assert!(counter(&client, "serve.workers.runs_executed") >= RUNS as u64);

    server.shutdown(false);
    server.wait().expect("clean drain");
    // The final metrics write leaves a snapshot on disk for tooling.
    assert!(dir.join("out").join("server.metrics.json").exists());
    out
}
