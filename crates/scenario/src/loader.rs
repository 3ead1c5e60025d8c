//! Scenario materialisation: spec → validated [`Testbed`].
//!
//! The loader turns a parsed [`ScenarioSpec`] into a runnable
//! [`Scenario`], building the grid through the fallible
//! `Grid::try_connect` / `Grid::try_attach` API so every structural
//! problem surfaces as a [`ScenarioError`] naming the offending field —
//! never a panic. Explicit grids additionally get semantic validation:
//! unique node names, resolvable references, contiguous station ids,
//! in-bounds WiFi positions, and a connectivity check that names the
//! first disconnected station.

use crate::builtin;
use crate::error::ScenarioError;
use crate::generate;
use crate::spec::{ExplicitGridSpec, GridSpec, ScenarioSpec};
use electrifi_testbed::{PlcNetwork, Station, Testbed};
use simnet::geometry::{Floor, Point};
use simnet::grid::{Grid, NodeId};
use std::collections::HashMap;

/// A materialised scenario: the parsed spec plus its validated testbed.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The parsed document.
    pub spec: ScenarioSpec,
    /// The validated testbed the experiments run over.
    pub testbed: Testbed,
}

impl Scenario {
    /// Materialise a spec with its own seed.
    pub fn load(spec: ScenarioSpec) -> Result<Self, ScenarioError> {
        let seed = spec.seed;
        Self::load_with_seed(spec, seed)
    }

    /// Materialise a spec with an overriding seed (campaign sweeps).
    pub fn load_with_seed(spec: ScenarioSpec, seed: u64) -> Result<Self, ScenarioError> {
        let testbed = match &spec.grid {
            GridSpec::Builtin(uri) => builtin::resolve(uri, seed, "grid.builtin")?,
            GridSpec::Generator(g) => generate::generate(g, seed),
            GridSpec::Explicit(e) => build_explicit(e, seed)?,
        };
        Ok(Scenario { spec, testbed })
    }

    /// Parse and materialise a scenario from JSON text.
    pub fn from_json_str(json: &str) -> Result<Self, ScenarioError> {
        Self::load(ScenarioSpec::from_json_str(json)?)
    }
}

/// Parse a scenario spec from a file path or a `builtin://` URI (the
/// latter yields a synthetic spec named after the builtin).
pub fn spec_from_path(path: &str) -> Result<ScenarioSpec, ScenarioError> {
    if path.starts_with("builtin://") {
        // Validate the URI eagerly so typos fail at parse time.
        builtin::resolve(path, 0, "grid.builtin")?;
        let name = path.trim_start_matches("builtin://").to_string();
        return ScenarioSpec::from_json_str(&format!(
            r#"{{"name": "{name}", "grid": {{"builtin": "{path}"}}}}"#
        ));
    }
    let json = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })?;
    ScenarioSpec::from_json_str(&json)
}

fn build_explicit(spec: &ExplicitGridSpec, seed: u64) -> Result<Testbed, ScenarioError> {
    let mut grid = Grid::new();
    let mut by_name: HashMap<&str, NodeId> = HashMap::new();
    let declarations = spec
        .boards
        .iter()
        .enumerate()
        .map(|(i, n)| {
            (
                n,
                simnet::grid::NodeKind::Board,
                format!("grid.explicit.boards[{i}]"),
            )
        })
        .chain(spec.junctions.iter().enumerate().map(|(i, n)| {
            (
                n,
                simnet::grid::NodeKind::Junction,
                format!("grid.explicit.junctions[{i}]"),
            )
        }))
        .chain(spec.outlets.iter().enumerate().map(|(i, n)| {
            (
                n,
                simnet::grid::NodeKind::Outlet,
                format!("grid.explicit.outlets[{i}]"),
            )
        }));
    for (name, kind, field) in declarations {
        if name.is_empty() {
            return Err(ScenarioError::invalid(
                field,
                "node names must be non-empty",
            ));
        }
        if by_name.contains_key(name.as_str()) {
            return Err(ScenarioError::invalid(
                field,
                format!("duplicate node name {name:?}"),
            ));
        }
        let id = grid.add_node(kind, name.clone());
        by_name.insert(name, id);
    }

    let resolve = |name: &str, field: String| -> Result<NodeId, ScenarioError> {
        by_name.get(name).copied().ok_or_else(|| {
            ScenarioError::invalid(
                field,
                format!("unknown node {name:?} (declare it under boards, junctions or outlets)"),
            )
        })
    };

    for (i, c) in spec.cables.iter().enumerate() {
        let a = resolve(&c.a, format!("grid.explicit.cables[{i}].a"))?;
        let b = resolve(&c.b, format!("grid.explicit.cables[{i}].b"))?;
        grid.try_connect(a, b, c.length_m)
            .map_err(|source| ScenarioError::Grid {
                field: format!("grid.explicit.cables[{i}]"),
                source,
            })?;
    }

    for (i, a) in spec.appliances.iter().enumerate() {
        let outlet = resolve(&a.outlet, format!("grid.explicit.appliances[{i}].outlet"))?;
        grid.try_attach(outlet, a.kind, a.schedule)
            .map_err(|source| ScenarioError::Grid {
                field: format!("grid.explicit.appliances[{i}]"),
                source,
            })?;
    }

    // Stations: contiguous unique ids, declared outlets, in-bounds
    // positions.
    if spec.stations.len() < 2 {
        return Err(ScenarioError::invalid(
            "grid.explicit.stations",
            format!(
                "at least 2 stations are required to form a link, got {}",
                spec.stations.len()
            ),
        ));
    }
    let mut seen = vec![false; spec.stations.len()];
    let mut stations = Vec::with_capacity(spec.stations.len());
    for (i, s) in spec.stations.iter().enumerate() {
        let field = format!("grid.explicit.stations[{i}]");
        if (s.id as usize) >= spec.stations.len() || seen[s.id as usize] {
            return Err(ScenarioError::invalid(
                format!("{field}.id"),
                format!(
                    "station ids must be unique and form the contiguous range 0..{} \
                     (id {} is {})",
                    spec.stations.len(),
                    s.id,
                    if (s.id as usize) >= spec.stations.len() {
                        "out of range"
                    } else {
                        "duplicated"
                    }
                ),
            ));
        }
        seen[s.id as usize] = true;
        let outlet = resolve(&s.outlet, format!("{field}.outlet"))?;
        let node = grid.try_node(outlet).expect("resolved above");
        if node.kind != simnet::grid::NodeKind::Outlet {
            return Err(ScenarioError::invalid(
                format!("{field}.outlet"),
                format!(
                    "stations plug into outlets, but {:?} is a {:?}",
                    s.outlet, node.kind
                ),
            ));
        }
        if !(0.0..=spec.floor_width_m).contains(&s.x) || !(0.0..=spec.floor_depth_m).contains(&s.y)
        {
            return Err(ScenarioError::invalid(
                format!("{field}.x"),
                format!(
                    "position ({}, {}) is outside the {} m × {} m floor",
                    s.x, s.y, spec.floor_width_m, spec.floor_depth_m
                ),
            ));
        }
        stations.push(Station {
            id: s.id,
            outlet,
            pos: Point::new(s.x, s.y),
            network: PlcNetwork::Net(s.network),
        });
    }
    stations.sort_by_key(|s| s.id);

    // Connectivity: every station outlet must reach the first board.
    let root = by_name[spec.boards[0].as_str()];
    for (i, s) in spec.stations.iter().enumerate() {
        let outlet = by_name[s.outlet.as_str()];
        if grid.cable_distance(root, outlet).is_none() {
            return Err(ScenarioError::invalid(
                format!("grid.explicit.stations[{i}].outlet"),
                format!(
                    "station {} at outlet {:?} is not wired to board {:?} — \
                     the grid has a disconnected component",
                    s.id, s.outlet, spec.boards[0]
                ),
            ));
        }
    }

    Ok(Testbed {
        grid,
        floor: Floor::new(spec.floor_width_m, spec.floor_depth_m),
        stations,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXPLICIT: &str = r#"{
        "name": "two-desk",
        "seed": 5,
        "grid": {"explicit": {
            "floor": {"width_m": 20.0, "depth_m": 10.0},
            "boards": ["B"],
            "junctions": ["j"],
            "outlets": ["o0", "o1", "fridge"],
            "cables": [
                {"a": "B", "b": "j", "length_m": 10.0},
                {"a": "j", "b": "o0", "length_m": 2.0},
                {"a": "j", "b": "o1", "length_m": 3.0},
                {"a": "j", "b": "fridge", "length_m": 1.0}
            ],
            "appliances": [
                {"outlet": "fridge", "kind": "fridge",
                 "schedule": {"duty-cycle": {"on_s": 900, "off_s": 1800, "seed": 1}}}
            ],
            "stations": [
                {"id": 0, "outlet": "o0", "x": 5.0, "y": 5.0, "network": 0},
                {"id": 1, "outlet": "o1", "x": 8.0, "y": 5.0, "network": 0}
            ]
        }}
    }"#;

    #[test]
    fn explicit_grid_materialises() {
        let sc = Scenario::from_json_str(EXPLICIT).expect("valid scenario");
        assert_eq!(sc.testbed.stations.len(), 2);
        assert_eq!(sc.testbed.grid.appliances().len(), 1);
        let d = sc.testbed.cable_distance_m(0, 1).expect("wired");
        assert!((d - 5.0).abs() < 1e-9, "{d}");
        assert_eq!(sc.testbed.plc_pairs().len(), 2);
    }

    #[test]
    fn unknown_cable_endpoint_is_named() {
        let bad = EXPLICIT.replace(r#""a": "B", "b": "j""#, r#""a": "B", "b": "jx""#);
        let err = Scenario::from_json_str(&bad).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.cables[0].b"));
        assert!(err.to_string().contains("\"jx\""));
    }

    #[test]
    fn negative_cable_length_is_a_grid_error_with_field() {
        let bad = EXPLICIT.replace(r#""length_m": 10.0"#, r#""length_m": -10.0"#);
        let err = Scenario::from_json_str(&bad).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.cables[0]"));
        assert!(err.to_string().contains("cable length must be positive"));
    }

    #[test]
    fn disconnected_station_is_named() {
        // Remove the cable that wires o1.
        let bad = EXPLICIT.replace(r#"{"a": "j", "b": "o1", "length_m": 3.0},"#, "");
        let err = Scenario::from_json_str(&bad).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.stations[1].outlet"));
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn station_id_gaps_and_duplicates_are_rejected() {
        let bad = EXPLICIT.replace(r#""id": 1"#, r#""id": 3"#);
        let err = Scenario::from_json_str(&bad).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.stations[1].id"));
        let dup = EXPLICIT.replace(r#""id": 1"#, r#""id": 0"#);
        let err = Scenario::from_json_str(&dup).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.stations[1].id"));
    }

    #[test]
    fn out_of_bounds_position_is_rejected() {
        let bad = EXPLICIT.replace(r#""x": 8.0"#, r#""x": 80.0"#);
        let err = Scenario::from_json_str(&bad).unwrap_err();
        assert_eq!(err.field(), Some("grid.explicit.stations[1].x"));
    }

    #[test]
    fn builtin_path_loads_the_paper_floor() {
        let spec = spec_from_path("builtin://imc2015-floor").expect("builtin resolves");
        let sc = Scenario::load(spec).expect("builtin loads");
        assert_eq!(sc.testbed.stations.len(), 19);
        assert_eq!(sc.testbed.seed, sc.spec.seed);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = spec_from_path("/no/such/scenario.json").unwrap_err();
        assert!(matches!(err, ScenarioError::Io { .. }));
    }
}
