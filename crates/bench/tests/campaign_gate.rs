//! The disturbance gate as the `campaign` bin applies it: the committed
//! gated campaign holds every assertion, and the deliberately failing
//! fixture still writes its summary, with a failing verdict, and exits 5.

use electrifi_scenario::CampaignSummary;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Run `campaign <file> --out <fresh dir>`; returns its exit code and
/// the `summary.json` it wrote.
fn run_campaign(file: &str, tag: &str) -> (Option<i32>, CampaignSummary) {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out: PathBuf = std::env::temp_dir().join(format!("efi-gate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg(repo.join("scenarios").join(file))
        .arg("--out")
        .arg(&out)
        .output()
        .expect("campaign runs")
        .status;
    let text = std::fs::read_to_string(out.join("summary.json")).expect("summary.json written");
    let _ = std::fs::remove_dir_all(&out);
    let summary = serde_json::from_str(&text).expect("summary.json parses as CampaignSummary");
    (status.code(), summary)
}

#[test]
fn gated_campaign_holds_every_assertion() {
    let (code, s) = run_campaign("disturbance-campaign.json", "pass");
    assert_eq!(code, Some(0));
    assert!(!s.runs.is_empty());
    for run in &s.runs {
        let v = run
            .verdict
            .as_ref()
            .expect("every gated run carries a verdict");
        assert!(
            !v.assertions.is_empty(),
            "{}: verdict has no assertions",
            run.run
        );
        assert!(v.assertions.iter().all(|a| a.pass), "{}: {v:?}", run.run);
        assert!(v.pass);
    }
}

#[test]
fn failing_fixture_still_writes_its_summary_and_exits_5() {
    let (code, s) = run_campaign("disturbance-fail-campaign.json", "fail");
    assert_eq!(code, Some(5));
    let v = s.runs[0]
        .verdict
        .as_ref()
        .expect("the fixture's run carries a verdict");
    assert!(!v.pass, "{v:?}");
}
