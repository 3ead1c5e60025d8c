//! The scenario and campaign loaders never panic on hostile input.
//!
//! Every numeric leaf of every document in `scenarios/` is replaced, one
//! at a time, by each value of a fixed hostile set: zero, a negative, a
//! huge float, 2^53, `u64::MAX`, a fraction and a string. Every object
//! key of every document is deleted, has its value replaced by each of
//! `null`, `true`, `"x"`, `[]` and `{}`, and gets an unknown sibling key.
//! Each shape mutation goes through both loaders: a scenario document
//! also loads as the inline scenario of a one-entry campaign, and a
//! campaign document must come back from the scenario loader as an
//! error. The tables are deterministic and small (a few hundred
//! documents each), so they enumerate every case instead of sampling
//! them. Each mutated document must load or come back as a typed error
//! naming the mutated key or leaf, and a document that loads must
//! describe a workload whose times fit the simulated clock. A document
//! nested far past the parser's recursion limit is a parse error, not a
//! stack overflow.

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

/// A value in a document: how to reach it, and its dotted path as the
/// loaders name it in errors (`workloads[0].sample_ms`).
struct Leaf {
    steps: Vec<Step>,
    path: String,
}

/// Every value of `v` that `keep` selects, in document order.
fn leaves(v: &Value, keep: fn(&Value, &[Step]) -> bool) -> Vec<Leaf> {
    fn walk(
        v: &Value,
        steps: &mut Vec<Step>,
        path: &str,
        keep: fn(&Value, &[Step]) -> bool,
        out: &mut Vec<Leaf>,
    ) {
        if keep(v, steps) {
            out.push(Leaf {
                steps: steps.clone(),
                path: path.to_string(),
            });
        }
        match v {
            Value::Obj(fields) => {
                for (i, (key, child)) in fields.iter().enumerate() {
                    let child_path = if path.is_empty() {
                        key.clone()
                    } else {
                        format!("{path}.{key}")
                    };
                    steps.push(Step::Field(i));
                    walk(child, steps, &child_path, keep, out);
                    steps.pop();
                }
            }
            Value::Arr(items) => {
                for (i, child) in items.iter().enumerate() {
                    steps.push(Step::Item(i));
                    walk(child, steps, &format!("{path}[{i}]"), keep, out);
                    steps.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(v, &mut Vec::new(), "", keep, &mut out);
    out
}

fn numeric_leaves(doc: &Value) -> Vec<Leaf> {
    leaves(doc, |v, _| matches!(v, Value::Num(_)))
}

/// The values that are object keys' values (their last step is a field).
fn object_keys(doc: &Value) -> Vec<Leaf> {
    leaves(doc, |_, steps| matches!(steps.last(), Some(Step::Field(_))))
}

/// The value `steps` lead to inside `at`.
fn at_mut<'v>(mut at: &'v mut Value, steps: &[Step]) -> &'v mut Value {
    for step in steps {
        at = match (step, at) {
            (Step::Field(i), Value::Obj(fields)) => &mut fields[*i].1,
            (Step::Item(i), Value::Arr(items)) => &mut items[*i],
            (step, v) => panic!("step {step:?} does not fit {}", v.kind()),
        };
    }
    at
}

fn replaced(doc: &Value, steps: &[Step], with: &Value) -> Value {
    let mut out = doc.clone();
    *at_mut(&mut out, steps) = with.clone();
    out
}

/// How an object key is mutated.
#[derive(Debug, Clone)]
enum Shape {
    Delete,
    Replace(Value),
    UnknownSibling,
}

fn shape_mutations() -> Vec<Shape> {
    let mut out = vec![Shape::Delete, Shape::UnknownSibling];
    out.extend(
        [
            Value::Null,
            Value::Bool(true),
            Value::Str("x".to_string()),
            Value::Arr(Vec::new()),
            Value::Obj(Vec::new()),
        ]
        .map(Shape::Replace),
    );
    out
}

/// `doc` with the object key at `steps` mutated by `shape`.
fn reshaped(doc: &Value, steps: &[Step], shape: &Shape) -> Value {
    let Some((Step::Field(index), parent)) = steps.split_last() else {
        panic!("{steps:?} does not end at an object key");
    };
    let mut out = doc.clone();
    let Value::Obj(fields) = at_mut(&mut out, parent) else {
        panic!("{steps:?} does not end at an object key");
    };
    match shape {
        Shape::Delete => {
            fields.remove(*index);
        }
        Shape::Replace(with) => fields[*index].1 = with.clone(),
        Shape::UnknownSibling => fields.push(("zz_unknown".to_string(), Value::Bool(true))),
    }
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
/// as `uniform_m`'s min <= max), a field of the same object (a
/// cross-field constraint such as `ramp_s <= duration_s` names one of
/// the two), or a field inside the leaf (a key whose value became `{}`
/// is missing its required fields; numbers have nothing inside).
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

/// True when an error at `field` names the mutated object key `key`:
/// anything [`names_leaf`] accepts, a field inside the key (a key whose
/// value became `{}` is missing its required fields), or a coupling's
/// `source`. That is a document's one cross-reference: it names a
/// disturbance, so mutating `disturbances` or a disturbance's `name`
/// leaves the reference dangling, and the error points at it.
fn names_key(field: &str, key: &str) -> bool {
    let dangling_source =
        key.contains("disturbances") && field.contains("couplings[") && field.ends_with(".source");
    names_leaf(field, key)
        || field.starts_with(&format!("{key}."))
        || field.starts_with(&format!("{key}["))
        || dangling_source
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

/// Load one mutated document. The loader must not panic; an error must
/// be typed and name `leaf` by the rule `names`; an accepted document's
/// workloads must fit the clock.
fn check_one(
    context: &str,
    json: &str,
    leaf: &str,
    names: fn(&str, &str) -> bool,
    load: &dyn Fn(&str) -> Loaded,
) {
    match catch_unwind(AssertUnwindSafe(|| load(json))) {
        Err(_) => panic!("{context}: the loader panicked"),
        Ok(Ok(workloads)) => {
            for wl in &workloads {
                assert_workload_fits(wl, context);
            }
        }
        Ok(Err(e)) => {
            let field = e
                .field()
                .unwrap_or_else(|| panic!("{context}: error names no field: {e}"));
            assert!(
                names(field, leaf),
                "{context}: error names `{field}`, not `{leaf}`: {e}"
            );
        }
    }
}

/// Load `doc` with every numeric leaf replaced, one at a time, by every
/// hostile value, checking each with [`check_one`]. Returns how many
/// mutated documents were tried.
fn check_every_mutation(name: &str, doc: &Value, load: &dyn Fn(&str) -> Loaded) -> usize {
    let mut tried = 0;
    for leaf in numeric_leaves(doc) {
        for value in hostile_values() {
            let json = serde_json::to_string(&replaced(doc, &leaf.steps, &value))
                .expect("value tree serializes");
            let context = format!("{name}: {} = {value:?}", leaf.path);
            check_one(&context, &json, &leaf.path, names_leaf, load);
            tried += 1;
        }
    }
    tried
}

/// Every object key of `doc` under every [`Shape`] mutation: the mutated
/// document and the path of the mutated key.
fn shape_cases(doc: &Value) -> Vec<(Shape, Value, String)> {
    let mut out = Vec::new();
    for key in object_keys(doc) {
        for shape in shape_mutations() {
            out.push((
                shape.clone(),
                reshaped(doc, &key.steps, &shape),
                key.path.clone(),
            ));
        }
    }
    out
}

fn load_scenario(json: &str) -> Loaded {
    Scenario::from_json_str(json).map(|s| vec![s.spec.workload])
}

fn load_campaign(json: &str) -> Loaded {
    CampaignSpec::from_json_str(json, &scenarios_dir())
        .map(|c| c.expand().into_iter().map(|r| r.workload).collect())
}

#[test]
fn scenario_loader_never_panics_on_hostile_numbers() {
    let scenarios = documents(false);
    let tried: usize = scenarios
        .iter()
        .map(|(name, doc)| check_every_mutation(name, doc, &load_scenario))
        .sum();
    assert!(tried > 100, "only {tried} mutated scenarios");
}

#[test]
fn campaign_loader_never_panics_on_hostile_numbers() {
    let campaigns = documents(true);
    // Campaigns that only list scenario files have no numeric leaf.
    let tried: usize = campaigns
        .iter()
        .map(|(name, doc)| check_every_mutation(name, doc, &load_campaign))
        .sum();
    assert!(tried > 10, "only {tried} mutated campaigns");
}

#[test]
fn scenario_shapes_load_or_name_the_key_through_both_loaders() {
    let mut tried = 0;
    for (name, doc) in documents(false) {
        for (shape, mutated, path) in shape_cases(&doc) {
            let context = format!("{name}: {path} {shape:?}");
            let json = serde_json::to_string(&mutated).expect("value tree serializes");
            check_one(&context, &json, &path, names_key, &load_scenario);
            let wrapped = Value::Obj(vec![
                ("name".to_string(), Value::Str("wrap".to_string())),
                ("scenarios".to_string(), Value::Arr(vec![mutated])),
            ]);
            let json = serde_json::to_string(&wrapped).expect("value tree serializes");
            let context = format!("{context} (inline in a campaign)");
            let path = format!("scenarios[0].{path}");
            check_one(&context, &json, &path, names_key, &load_campaign);
            tried += 1;
        }
    }
    assert!(tried > 100, "only {tried} reshaped scenarios");
}

#[test]
fn campaign_shapes_load_or_name_the_key_through_both_loaders() {
    let mut tried = 0;
    for (name, doc) in documents(true) {
        for (shape, mutated, path) in shape_cases(&doc) {
            let context = format!("{name}: {path} {shape:?}");
            let json = serde_json::to_string(&mutated).expect("value tree serializes");
            check_one(&context, &json, &path, names_key, &load_campaign);
            // No campaign document is a scenario, however it is reshaped.
            match catch_unwind(AssertUnwindSafe(|| load_scenario(&json))) {
                Err(_) => panic!("{context}: the scenario loader panicked"),
                Ok(loaded) => assert!(loaded.is_err(), "{context}: loads as a scenario"),
            }
            tried += 1;
        }
    }
    assert!(tried > 50, "only {tried} reshaped campaigns");
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
