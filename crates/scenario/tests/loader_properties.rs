//! The scenario and campaign loaders never panic on hostile numbers.
//!
//! Every numeric leaf of every document in `scenarios/` is replaced, one
//! at a time, by each value of a fixed hostile set: zero, a negative, a
//! huge float, 2^53, `u64::MAX`, a fraction and a string. The table is
//! deterministic and small (a few hundred documents), so it enumerates
//! every case instead of sampling them. Each mutated document must load
//! or come back as a typed error naming the leaf, and a document that
//! loads must describe a workload whose times fit the simulated clock.
//! A document nested far past the parser's recursion limit is a parse
//! error, not a stack overflow.

use electrifi_scenario::{CampaignSpec, Scenario, ScenarioError, WorkloadSpec};
use serde::{Number, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// One step from a value to a child: an object field index or an array
/// index.
#[derive(Debug, Clone, Copy)]
enum Step {
    Field(usize),
    Item(usize),
}

/// A numeric leaf: how to reach it, and its dotted path as the loaders
/// name it in errors (`workloads[0].sample_ms`).
struct Leaf {
    steps: Vec<Step>,
    path: String,
}

fn numeric_leaves(v: &Value, steps: &mut Vec<Step>, path: &str, out: &mut Vec<Leaf>) {
    match v {
        Value::Num(_) => out.push(Leaf {
            steps: steps.clone(),
            path: path.to_string(),
        }),
        Value::Obj(fields) => {
            for (i, (key, child)) in fields.iter().enumerate() {
                let child_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                steps.push(Step::Field(i));
                numeric_leaves(child, steps, &child_path, out);
                steps.pop();
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                steps.push(Step::Item(i));
                numeric_leaves(child, steps, &format!("{path}[{i}]"), out);
                steps.pop();
            }
        }
        _ => {}
    }
}

fn replaced(doc: &Value, steps: &[Step], with: &Value) -> Value {
    let mut out = doc.clone();
    let mut at = &mut out;
    for step in steps {
        at = match (step, at) {
            (Step::Field(i), Value::Obj(fields)) => &mut fields[*i].1,
            (Step::Item(i), Value::Arr(items)) => &mut items[*i],
            (step, v) => panic!("step {step:?} does not fit {}", v.kind()),
        };
    }
    *at = with.clone();
    out
}

fn hostile_values() -> Vec<Value> {
    vec![
        Value::Num(Number::PosInt(0)),
        Value::Num(Number::NegInt(-1)),
        Value::Num(Number::Float(1e300)),
        Value::Num(Number::PosInt(1 << 53)),
        Value::Num(Number::PosInt(u64::MAX)),
        Value::Num(Number::Float(0.5)),
        Value::Str("x".to_string()),
    ]
}

/// True when an error at `field` names the leaf at `leaf`: the leaf
/// itself, an enclosing object (constraints over a whole object, such
/// as `uniform_m`'s min <= max), or a field of the same object (a
/// cross-field constraint such as `ramp_s <= duration_s` names one of
/// the two).
fn names_leaf(field: &str, leaf: &str) -> bool {
    let parent = |p: &str| {
        p.rfind(['.', '['])
            .map_or(String::new(), |i| p[..i].to_string())
    };
    field == leaf
        || leaf.starts_with(&format!("{field}."))
        || leaf.starts_with(&format!("{field}["))
        || parent(field) == parent(leaf)
}

/// The workload's times, and the start + duration sum, all fit the
/// simulated clock (a debug build panics on the overflowing arithmetic).
fn assert_workload_fits(wl: &WorkloadSpec, context: &str) {
    let fits = catch_unwind(|| {
        let (start, duration, _sample) = (wl.start(), wl.duration(), wl.sample());
        start.as_nanos().checked_add(duration.as_nanos()).is_some()
    });
    assert!(
        matches!(fits, Ok(true)),
        "{context}: accepted workload overflows the clock: {wl:?}"
    );
}

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// The campaign documents in `scenarios/` (they list `scenarios`), or
/// the scenario documents, with their file names.
fn documents(campaigns: bool) -> Vec<(String, Value)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    let docs: Vec<(String, Value)> = paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("document is readable");
            let doc: Value = serde_json::from_str(&text).expect("shipped document parses");
            (name, doc)
        })
        .filter(|(_, doc)| doc.get("scenarios").is_some() == campaigns)
        .collect();
    assert!(!docs.is_empty());
    docs
}

/// What a loader accepted: the workload of every run it would execute.
type Loaded = Result<Vec<WorkloadSpec>, ScenarioError>;

/// Load `doc` with every numeric leaf replaced, one at a time, by every
/// hostile value. The loader must not panic; an error must be typed and
/// name the leaf; an accepted document's workloads must fit the clock.
/// Returns how many mutated documents were loaded.
fn check_every_mutation(name: &str, doc: &Value, load: &dyn Fn(&str) -> Loaded) -> usize {
    let mut leaves = Vec::new();
    numeric_leaves(doc, &mut Vec::new(), "", &mut leaves);
    let mut tried = 0;
    for leaf in &leaves {
        for value in hostile_values() {
            let json = serde_json::to_string(&replaced(doc, &leaf.steps, &value))
                .expect("value tree serializes");
            let context = format!("{name}: {} = {value:?}", leaf.path);
            match catch_unwind(AssertUnwindSafe(|| load(&json))) {
                Err(_) => panic!("{context}: the loader panicked"),
                Ok(Ok(workloads)) => {
                    for wl in &workloads {
                        assert_workload_fits(wl, &context);
                    }
                }
                Ok(Err(e)) => {
                    let field = e
                        .field()
                        .unwrap_or_else(|| panic!("{context}: error names no field: {e}"));
                    assert!(
                        names_leaf(field, &leaf.path),
                        "{context}: error names `{field}`, not the leaf: {e}"
                    );
                }
            }
            tried += 1;
        }
    }
    tried
}

#[test]
fn scenario_loader_never_panics_on_hostile_numbers() {
    let scenarios = documents(false);
    let load = |json: &str| Scenario::from_json_str(json).map(|s| vec![s.spec.workload]);
    let tried: usize = scenarios
        .iter()
        .map(|(name, doc)| check_every_mutation(name, doc, &load))
        .sum();
    assert!(tried > 100, "only {tried} mutated scenarios");
}

#[test]
fn campaign_loader_never_panics_on_hostile_numbers() {
    let campaigns = documents(true);
    let dir = scenarios_dir();
    let load = |json: &str| {
        CampaignSpec::from_json_str(json, &dir)
            .map(|c| c.expand().into_iter().map(|r| r.workload).collect())
    };
    // Campaigns that only list scenario files have no numeric leaf.
    let tried: usize = campaigns
        .iter()
        .map(|(name, doc)| check_every_mutation(name, doc, &load))
        .sum();
    assert!(tried > 10, "only {tried} mutated campaigns");
}

#[test]
fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
    let depth = 100_000;
    let nest = "[".repeat(depth) + &"]".repeat(depth);
    let scenario = format!("{{\"name\":\"x\",\"grid\":{nest}}}");
    let campaign = format!("{{\"name\":\"x\",\"scenarios\":{nest}}}");
    assert!(matches!(
        Scenario::from_json_str(&scenario),
        Err(ScenarioError::Parse { .. })
    ));
    assert!(matches!(
        CampaignSpec::from_json_str(&campaign, &scenarios_dir()),
        Err(ScenarioError::Parse { .. })
    ));
}
