//! The declarative scenario schema.
//!
//! A scenario file is a JSON object:
//!
//! ```json
//! {
//!   "name": "two-floor-office",
//!   "seed": 7,
//!   "grid": { "generator": { "floors": 2, "boards_per_floor": 1,
//!             "offices_per_board": 8, "stations_per_board": 5 } },
//!   "workload": { "name": "bursty", "start_hour": 10,
//!                 "duration_s": 30, "sample_ms": 500, "max_pairs": 8 },
//!   "probing": "paper-adaptive",
//!   "experiments": ["fig03", "probing"]
//! }
//! ```
//!
//! `grid` declares exactly one of:
//!
//! * `"builtin"` — a named built-in testbed such as
//!   `"builtin://imc2015-floor"` (the paper's 19-station floor);
//! * `"generator"` — a procedural office-building generator (floors ×
//!   boards × offices, cable-length distributions, appliance mix);
//! * `"explicit"` — a literal node/cable/appliance/station list.
//!
//! Parsing is done by hand over the JSON value tree (see [`crate::de`])
//! so every rejection names the offending field.

use crate::de::{At, MAX_SPAN_NS};
use crate::disturbance::{parse_assertions, parse_couplings, parse_disturbances};
use crate::error::ScenarioError;
use electrifi::experiments::disturbance::WARMUP_SECS;
use electrifi_faults::{AssertionSpec, CouplingSpec, DisturbanceSpec};
use hybrid1905::probing::ProbingPolicy;
use simnet::appliance::ApplianceKind;
use simnet::schedule::Schedule;
use simnet::time::{Duration, Time};

/// A fully parsed scenario document (grid not yet materialised; see
/// [`crate::loader::Scenario`]).
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (used in run names and manifests).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Master seed; campaign files can override per run.
    pub seed: u64,
    /// The grid declaration.
    pub grid: GridSpec,
    /// Default traffic workload (campaigns can override).
    pub workload: WorkloadSpec,
    /// Link-probing policy for the `probing` experiment.
    pub probing: ProbingPolicy,
    /// Experiments to run.
    pub experiments: Vec<ExperimentKind>,
    /// Scripted disturbance track (empty = undisturbed run).
    pub disturbances: Vec<DisturbanceSpec>,
    /// Coupling rules: event A triggers effect B after a delay.
    pub couplings: Vec<CouplingSpec>,
    /// Declarative invariants evaluated in-sim over disturbed runs.
    pub assertions: Vec<AssertionSpec>,
}

/// How the grid is obtained.
#[derive(Debug, Clone)]
pub enum GridSpec {
    /// A named built-in testbed, e.g. `builtin://imc2015-floor`.
    Builtin(String),
    /// Procedural office-building generator.
    Generator(GeneratorSpec),
    /// Literal node/cable/appliance/station lists.
    Explicit(ExplicitGridSpec),
}

/// A cable-length distribution, sampled deterministically per site.
#[derive(Debug, Clone, Copy)]
pub enum DistSpec {
    /// Always the same length.
    Fixed {
        /// The length, metres.
        value_m: f64,
    },
    /// Uniform over `[min_m, max_m]`.
    Uniform {
        /// Lower bound, metres.
        min_m: f64,
        /// Upper bound, metres.
        max_m: f64,
    },
}

impl DistSpec {
    /// Deterministic sample from a hash word.
    pub fn sample(&self, h: u64) -> f64 {
        match *self {
            DistSpec::Fixed { value_m } => value_m,
            DistSpec::Uniform { min_m, max_m } => {
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                min_m + (max_m - min_m) * u
            }
        }
    }
}

/// Parameters of the procedural office-building generator.
#[derive(Debug, Clone)]
pub struct GeneratorSpec {
    /// Number of floors (1–16).
    pub floors: u32,
    /// Distribution boards per floor (1–16); each board forms one
    /// logical PLC network.
    pub boards_per_floor: u32,
    /// Offices hanging off each board's corridor (1–64).
    pub offices_per_board: u32,
    /// Stations per board (≤ offices_per_board); placed in the first
    /// offices of the corridor.
    pub stations_per_board: u32,
    /// Cable metres between consecutive corridor junction boxes.
    pub corridor_spacing_m: f64,
    /// Office-drop cable length distribution.
    pub drop_length_m: DistSpec,
    /// Desk-outlet cable length distribution.
    pub desk_length_m: DistSpec,
    /// Basement riser cable metres between adjacent boards.
    pub inter_board_cable_m: f64,
    /// Appliance mix: `(kind, weight)` — relative odds that an office's
    /// extra socket hosts each kind. Normalised at generation time.
    pub appliance_mix: Vec<(ApplianceKind, f64)>,
}

impl GeneratorSpec {
    /// Total station count of the building this spec describes.
    pub fn total_stations(&self) -> u64 {
        self.floors as u64 * self.boards_per_floor as u64 * self.stations_per_board as u64
    }

    /// Total board (= logical network) count.
    pub fn total_boards(&self) -> u64 {
        self.floors as u64 * self.boards_per_floor as u64
    }
}

/// The default appliance mix: a working office floor (weights roughly
/// matching the paper floor's population).
pub fn default_appliance_mix() -> Vec<(ApplianceKind, f64)> {
    vec![
        (ApplianceKind::Charger, 3.0),
        (ApplianceKind::SpaceHeater, 1.0),
        (ApplianceKind::LaserPrinter, 1.0),
        (ApplianceKind::ItEquipment, 1.0),
    ]
}

/// An explicit grid: literal nodes, cables, appliances and stations.
#[derive(Debug, Clone)]
pub struct ExplicitGridSpec {
    /// Floor width, metres.
    pub floor_width_m: f64,
    /// Floor depth, metres.
    pub floor_depth_m: f64,
    /// Distribution-board node names.
    pub boards: Vec<String>,
    /// Junction-box node names.
    pub junctions: Vec<String>,
    /// Outlet node names.
    pub outlets: Vec<String>,
    /// Cables between named nodes.
    pub cables: Vec<CableSpec>,
    /// Appliances plugged into named outlets.
    pub appliances: Vec<ApplianceSpec>,
    /// Stations plugged into named outlets.
    pub stations: Vec<StationSpec>,
}

/// One cable of an explicit grid.
#[derive(Debug, Clone)]
pub struct CableSpec {
    /// Name of one endpoint node.
    pub a: String,
    /// Name of the other endpoint node.
    pub b: String,
    /// Cable length, metres (must be positive).
    pub length_m: f64,
}

/// One appliance of an explicit grid.
#[derive(Debug, Clone)]
pub struct ApplianceSpec {
    /// Name of the outlet it plugs into.
    pub outlet: String,
    /// Appliance kind.
    pub kind: ApplianceKind,
    /// On/off schedule.
    pub schedule: Schedule,
}

/// One station of an explicit grid.
#[derive(Debug, Clone)]
pub struct StationSpec {
    /// Station id; ids must form the contiguous range `0..n`.
    pub id: u16,
    /// Name of the outlet its PLC modem plugs into.
    pub outlet: String,
    /// WiFi position, metres.
    pub x: f64,
    /// WiFi position, metres.
    pub y: f64,
    /// Logical PLC network index (stations sharing an index associate).
    pub network: u16,
}

/// A traffic/measurement workload: the sampling window the spatial
/// experiments sweep.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Workload name (used in run names).
    pub name: String,
    /// Sim-time start hour of the window.
    pub start_hour: u64,
    /// Window duration, seconds.
    pub duration_s: f64,
    /// Sampling period, milliseconds.
    pub sample_ms: u64,
    /// Cap on the number of station pairs measured (`None` = all).
    pub max_pairs: Option<usize>,
}

impl WorkloadSpec {
    /// The quick default workload used when a scenario omits `workload`.
    pub fn default_quick() -> Self {
        WorkloadSpec {
            name: "quick".to_string(),
            start_hour: 10,
            duration_s: 20.0,
            sample_ms: 500,
            max_pairs: Some(6),
        }
    }

    /// Measurement window start.
    pub fn start(&self) -> Time {
        Time::from_hours(self.start_hour)
    }

    /// Measurement window duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.duration_s)
    }

    /// Sampling period.
    pub fn sample(&self) -> Duration {
        Duration::from_millis(self.sample_ms)
    }
}

/// Which experiment to run over a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// Fig. 3-class spatial sweep: PLC vs WiFi throughput per pair.
    Fig03,
    /// Fig. 7-class sweep: PLC throughput vs cable distance.
    Fig07,
    /// Probing-policy evaluation over same-network PLC links.
    Probing,
    /// Disturbance-track run: scripted faults, gated estimation and the
    /// assertion engine's verdict.
    Disturbance,
}

impl ExperimentKind {
    /// Stable lower-case name (used in JSON and run manifests).
    pub fn name(self) -> &'static str {
        match self {
            ExperimentKind::Fig03 => "fig03",
            ExperimentKind::Fig07 => "fig07",
            ExperimentKind::Probing => "probing",
            ExperimentKind::Disturbance => "disturbance",
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Parse an appliance kind from its kebab-case name.
pub fn appliance_kind_from_str(s: &str) -> Option<ApplianceKind> {
    Some(match s {
        "lighting" => ApplianceKind::Lighting,
        "desktop-pc" => ApplianceKind::DesktopPc,
        "monitor" => ApplianceKind::Monitor,
        "laser-printer" => ApplianceKind::LaserPrinter,
        "coffee-machine" => ApplianceKind::CoffeeMachine,
        "fridge" => ApplianceKind::Fridge,
        "charger" => ApplianceKind::Charger,
        "microwave" => ApplianceKind::Microwave,
        "it-equipment" => ApplianceKind::ItEquipment,
        "space-heater" => ApplianceKind::SpaceHeater,
        _ => return None,
    })
}

const APPLIANCE_KINDS: &str = "lighting, desktop-pc, monitor, laser-printer, coffee-machine, \
                               fridge, charger, microwave, it-equipment, space-heater";

fn parse_appliance_kind(at: &At) -> Result<ApplianceKind, ScenarioError> {
    let s = at.str()?;
    appliance_kind_from_str(s).ok_or_else(|| {
        at.invalid(format!(
            "unknown appliance kind {s:?} (one of: {APPLIANCE_KINDS})"
        ))
    })
}

fn parse_schedule(at: &At) -> Result<Schedule, ScenarioError> {
    if let Ok(s) = at.str() {
        return match s {
            "always-on" => Ok(Schedule::AlwaysOn),
            "building-lights" => Ok(Schedule::BuildingLights),
            other => Err(at.invalid(format!(
                "unknown schedule {other:?} (strings: always-on, building-lights; \
                 objects: office-hours, duty-cycle, sporadic)"
            ))),
        };
    }
    at.obj()?;
    at.no_unknown_keys(&["office-hours", "duty-cycle", "sporadic"])?;
    if let Some(o) = at.opt("office-hours") {
        o.no_unknown_keys(&["seed"])?;
        let seed = o.req("seed")?.u64()?;
        return Ok(Schedule::OfficeHours { seed });
    }
    if let Some(d) = at.opt("duty-cycle") {
        d.no_unknown_keys(&["on_s", "off_s", "seed"])?;
        return Ok(Schedule::DutyCycle {
            on_s: d.req("on_s")?.u64()?,
            off_s: d.req("off_s")?.u64()?,
            seed: d.req("seed")?.u64()?,
        });
    }
    if let Some(s) = at.opt("sporadic") {
        s.no_unknown_keys(&["p_active", "seed"])?;
        let p = s.req("p_active")?.f64()?;
        if !(0.0..=1.0).contains(&p) {
            return Err(s.req("p_active")?.invalid("probability must be in [0, 1]"));
        }
        return Ok(Schedule::Sporadic {
            p_active: p,
            seed: s.req("seed")?.u64()?,
        });
    }
    Err(at.invalid("schedule object must have exactly one of: office-hours, duty-cycle, sporadic"))
}

fn parse_dist(at: &At) -> Result<DistSpec, ScenarioError> {
    at.obj()?;
    at.no_unknown_keys(&["fixed_m", "uniform_m"])?;
    match (at.opt("fixed_m"), at.opt("uniform_m")) {
        (Some(v), None) => Ok(DistSpec::Fixed {
            value_m: v.positive()?,
        }),
        (None, Some(u)) => {
            let items = u.items()?;
            if items.len() != 2 {
                return Err(u.invalid(format!(
                    "uniform_m takes [min_m, max_m], got {} element(s)",
                    items.len()
                )));
            }
            let min_m = items[0].positive()?;
            let max_m = items[1].positive()?;
            if min_m > max_m {
                return Err(u.invalid(format!(
                    "uniform_m needs min <= max, got [{min_m}, {max_m}]"
                )));
            }
            Ok(DistSpec::Uniform { min_m, max_m })
        }
        _ => Err(at.invalid("distribution must have exactly one of: fixed_m, uniform_m")),
    }
}

fn bounded_u32(at: &At, lo: u32, hi: u32) -> Result<u32, ScenarioError> {
    let v = at.u64()?;
    if (lo as u64..=hi as u64).contains(&v) {
        Ok(v as u32)
    } else {
        Err(at.invalid(format!("must be in {lo}..={hi}, got {v}")))
    }
}

fn parse_generator(at: &At) -> Result<GeneratorSpec, ScenarioError> {
    at.obj()?;
    at.no_unknown_keys(&[
        "floors",
        "boards_per_floor",
        "offices_per_board",
        "stations_per_board",
        "corridor_spacing_m",
        "drop_length_m",
        "desk_length_m",
        "inter_board_cable_m",
        "appliance_mix",
    ])?;
    let floors = bounded_u32(&at.req("floors")?, 1, 16)?;
    let boards_per_floor = bounded_u32(&at.req("boards_per_floor")?, 1, 16)?;
    let offices_per_board = bounded_u32(&at.req("offices_per_board")?, 1, 64)?;
    let stations_field = at.req("stations_per_board")?;
    let stations_per_board = bounded_u32(&stations_field, 1, 64)?;
    if stations_per_board > offices_per_board {
        return Err(stations_field.invalid(format!(
            "stations_per_board ({stations_per_board}) cannot exceed \
             offices_per_board ({offices_per_board})"
        )));
    }
    let corridor_spacing_m = match at.opt("corridor_spacing_m") {
        Some(v) => v.positive()?,
        None => 4.0,
    };
    let drop_length_m = match at.opt("drop_length_m") {
        Some(v) => parse_dist(&v)?,
        None => DistSpec::Uniform {
            min_m: 3.0,
            max_m: 9.0,
        },
    };
    let desk_length_m = match at.opt("desk_length_m") {
        Some(v) => parse_dist(&v)?,
        None => DistSpec::Uniform {
            min_m: 2.0,
            max_m: 6.0,
        },
    };
    let inter_board_cable_m = match at.opt("inter_board_cable_m") {
        Some(v) => v.positive()?,
        None => electrifi_testbed::INTER_BOARD_CABLE_M,
    };
    let appliance_mix = match at.opt("appliance_mix") {
        Some(m) => {
            let mut mix = Vec::new();
            for (k, _) in m.obj()? {
                let w = m.req(k)?;
                let kind = appliance_kind_from_str(k).ok_or_else(|| {
                    w.invalid(format!(
                        "unknown appliance kind (one of: {APPLIANCE_KINDS})"
                    ))
                })?;
                mix.push((kind, w.positive()?));
            }
            if mix.is_empty() {
                return Err(m.invalid("appliance_mix must name at least one kind"));
            }
            mix
        }
        None => default_appliance_mix(),
    };
    let spec = GeneratorSpec {
        floors,
        boards_per_floor,
        offices_per_board,
        stations_per_board,
        corridor_spacing_m,
        drop_length_m,
        desk_length_m,
        inter_board_cable_m,
        appliance_mix,
    };
    if spec.total_stations() < 2 {
        return Err(stations_field.invalid(format!(
            "the building must contain at least 2 stations, \
             floors × boards_per_floor × stations_per_board = {}",
            spec.total_stations()
        )));
    }
    Ok(spec)
}

fn parse_explicit(at: &At) -> Result<ExplicitGridSpec, ScenarioError> {
    at.obj()?;
    at.no_unknown_keys(&[
        "floor",
        "boards",
        "junctions",
        "outlets",
        "cables",
        "appliances",
        "stations",
    ])?;
    let floor = at.req("floor")?;
    floor.no_unknown_keys(&["width_m", "depth_m"])?;
    let floor_width_m = floor.req("width_m")?.positive()?;
    let floor_depth_m = floor.req("depth_m")?.positive()?;
    let names = |key: &str| -> Result<Vec<String>, ScenarioError> {
        match at.opt(key) {
            Some(list) => list
                .items()?
                .iter()
                .map(|it| it.str().map(str::to_string))
                .collect(),
            None => Ok(Vec::new()),
        }
    };
    let boards = names("boards")?;
    if boards.is_empty() {
        return Err(at.invalid("explicit grids need at least one entry in `boards`"));
    }
    let junctions = names("junctions")?;
    let outlets = names("outlets")?;

    let mut cables = Vec::new();
    for c in at.req("cables")?.items()? {
        c.no_unknown_keys(&["a", "b", "length_m"])?;
        cables.push(CableSpec {
            a: c.req("a")?.str()?.to_string(),
            b: c.req("b")?.str()?.to_string(),
            length_m: c.req("length_m")?.f64()?,
        });
    }

    let mut appliances = Vec::new();
    if let Some(list) = at.opt("appliances") {
        for a in list.items()? {
            a.no_unknown_keys(&["outlet", "kind", "schedule"])?;
            appliances.push(ApplianceSpec {
                outlet: a.req("outlet")?.str()?.to_string(),
                kind: parse_appliance_kind(&a.req("kind")?)?,
                schedule: match a.opt("schedule") {
                    Some(s) => parse_schedule(&s)?,
                    None => Schedule::AlwaysOn,
                },
            });
        }
    }

    let mut stations = Vec::new();
    for s in at.req("stations")?.items()? {
        s.no_unknown_keys(&["id", "outlet", "x", "y", "network"])?;
        let id_field = s.req("id")?;
        let id = id_field.u64()?;
        let id = u16::try_from(id)
            .map_err(|_| id_field.invalid(format!("station id too large: {id}")))?;
        let net_field = s.req("network")?;
        let network = net_field.u64()?;
        let network = u16::try_from(network)
            .map_err(|_| net_field.invalid(format!("network index too large: {network}")))?;
        stations.push(StationSpec {
            id,
            outlet: s.req("outlet")?.str()?.to_string(),
            x: s.req("x")?.f64()?,
            y: s.req("y")?.f64()?,
            network,
        });
    }
    Ok(ExplicitGridSpec {
        floor_width_m,
        floor_depth_m,
        boards,
        junctions,
        outlets,
        cables,
        appliances,
        stations,
    })
}

fn parse_grid(at: &At) -> Result<GridSpec, ScenarioError> {
    at.obj()?;
    at.no_unknown_keys(&["builtin", "generator", "explicit"])?;
    let declared = ["builtin", "generator", "explicit"]
        .iter()
        .filter(|k| at.opt(k).is_some())
        .count();
    if declared != 1 {
        return Err(at.invalid("grid must declare exactly one of: builtin, generator, explicit"));
    }
    if let Some(b) = at.opt("builtin") {
        return Ok(GridSpec::Builtin(b.str()?.to_string()));
    }
    if let Some(g) = at.opt("generator") {
        return Ok(GridSpec::Generator(parse_generator(&g)?));
    }
    let e = at.opt("explicit").expect("counted above");
    Ok(GridSpec::Explicit(parse_explicit(&e)?))
}

/// Parse a workload object (also used by campaign files).
///
/// Every time value is checked in nanoseconds, and so is the run's last
/// instant: start, warm-up, duration and one more sample period, the
/// step the samplers take past the end.
pub fn parse_workload(at: &At) -> Result<WorkloadSpec, ScenarioError> {
    at.obj()?;
    at.no_unknown_keys(&["name", "start_hour", "duration_s", "sample_ms", "max_pairs"])?;
    let duration_field = at.req("duration_s")?;
    let duration_s = duration_field.positive()?;
    let duration_ns = duration_field.secs_ns(duration_s)?;
    let sample_field = at.req("sample_ms")?;
    let sample_ms = sample_field.u64()?;
    if sample_ms == 0 {
        return Err(sample_field.invalid("sampling period must be at least 1 ms"));
    }
    let sample_ns = sample_field.span_ns(sample_ms, 1_000_000)?;
    let start_hour = match at.opt("start_hour") {
        Some(h) => {
            let hour = h.u64()?;
            h.span_ns(hour, 3_600_000_000_000)?;
            hour
        }
        None => 10,
    };
    // Each term is at most MAX_SPAN_NS, so the sum cannot overflow.
    let end_ns = Time::from_hours(start_hour).as_nanos()
        + WARMUP_SECS * 1_000_000_000
        + duration_ns
        + sample_ns;
    if end_ns > MAX_SPAN_NS {
        return Err(at.invalid(format!(
            "the run ends past the simulated-time limit of {:.0} s \
             (start_hour + {WARMUP_SECS} s warm-up + duration_s + one sample_ms)",
            MAX_SPAN_NS as f64 / 1e9
        )));
    }
    Ok(WorkloadSpec {
        name: match at.opt("name") {
            Some(n) => n.name()?.to_string(),
            None => "workload".to_string(),
        },
        start_hour,
        duration_s,
        sample_ms,
        max_pairs: match at.opt("max_pairs") {
            Some(m) => Some(m.usize()?),
            None => None,
        },
    })
}

fn parse_probing(at: &At) -> Result<ProbingPolicy, ScenarioError> {
    if let Ok(s) = at.str() {
        return match s {
            "paper-adaptive" => Ok(ProbingPolicy::paper_adaptive()),
            other => Err(at.invalid(format!(
                "unknown probing policy {other:?} (strings: paper-adaptive; \
                 objects: {{\"fixed_s\": <seconds>}})"
            ))),
        };
    }
    at.obj()?;
    at.no_unknown_keys(&["fixed_s"])?;
    let field = at.req("fixed_s")?;
    let secs = field.positive()?;
    field.secs_ns(secs)?;
    Ok(ProbingPolicy::Fixed(Duration::from_secs_f64(secs)))
}

/// Parse an experiment list (also used by campaign files).
pub fn parse_experiments(at: &At) -> Result<Vec<ExperimentKind>, ScenarioError> {
    let mut out = Vec::new();
    for e in at.items()? {
        let s = e.str()?;
        let kind = match s {
            "fig03" => ExperimentKind::Fig03,
            "fig07" => ExperimentKind::Fig07,
            "probing" => ExperimentKind::Probing,
            "disturbance" => ExperimentKind::Disturbance,
            other => {
                return Err(e.invalid(format!(
                    "unknown experiment {other:?} (one of: fig03, fig07, probing, disturbance)"
                )))
            }
        };
        if !out.contains(&kind) {
            out.push(kind);
        }
    }
    if out.is_empty() {
        return Err(at.invalid("experiment list must not be empty"));
    }
    Ok(out)
}

impl ScenarioSpec {
    /// Parse a scenario document from its JSON value tree.
    pub fn parse(root: &At) -> Result<Self, ScenarioError> {
        root.obj().map_err(|_| {
            ScenarioError::invalid("<root>", "a scenario document must be a JSON object")
        })?;
        root.no_unknown_keys(&[
            "name",
            "description",
            "seed",
            "grid",
            "workload",
            "probing",
            "experiments",
            "disturbances",
            "couplings",
            "assertions",
        ])?;
        let name = root.req("name")?.name()?.to_string();
        let disturbances = match root.opt("disturbances") {
            Some(d) => parse_disturbances(&d)?,
            None => Vec::new(),
        };
        Ok(ScenarioSpec {
            name,
            description: match root.opt("description") {
                Some(d) => d.str()?.to_string(),
                None => String::new(),
            },
            seed: match root.opt("seed") {
                Some(s) => s.u64()?,
                None => 2015,
            },
            grid: parse_grid(&root.req("grid")?)?,
            workload: match root.opt("workload") {
                Some(w) => parse_workload(&w)?,
                None => WorkloadSpec::default_quick(),
            },
            probing: match root.opt("probing") {
                Some(p) => parse_probing(&p)?,
                None => ProbingPolicy::paper_adaptive(),
            },
            experiments: match root.opt("experiments") {
                Some(e) => parse_experiments(&e)?,
                None => vec![ExperimentKind::Fig03],
            },
            disturbances: disturbances.clone(),
            couplings: match root.opt("couplings") {
                Some(c) => parse_couplings(&c, &disturbances)?,
                None => Vec::new(),
            },
            assertions: match root.opt("assertions") {
                Some(a) => parse_assertions(&a)?,
                None => Vec::new(),
            },
        })
    }

    /// Parse a scenario from JSON text.
    pub fn from_json_str(json: &str) -> Result<Self, ScenarioError> {
        let value: serde::Value = serde_json::from_str(json).map_err(|e| ScenarioError::Parse {
            message: e.to_string(),
        })?;
        Self::parse(&At::root(&value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_generator_scenario_parses_with_defaults() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "tiny", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 4, "stations_per_board": 3}}}"#,
        )
        .expect("valid scenario");
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.seed, 2015);
        assert_eq!(spec.experiments, vec![ExperimentKind::Fig03]);
        match &spec.grid {
            GridSpec::Generator(g) => {
                assert_eq!(g.total_stations(), 3);
                assert_eq!(g.corridor_spacing_m, 4.0);
            }
            other => panic!("expected generator, got {other:?}"),
        }
    }

    #[test]
    fn errors_name_the_offending_field() {
        let err = ScenarioSpec::from_json_str(
            r#"{"name": "bad", "grid": {"generator": {
                "floors": 0, "boards_per_floor": 1,
                "offices_per_board": 4, "stations_per_board": 3}}}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("grid.generator.floors"));

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "bad", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 2, "stations_per_board": 5}}}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("grid.generator.stations_per_board"));
        assert!(err.to_string().contains("cannot exceed"));

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "bad", "grid": {"builtin": "x", "generator": {}}}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("grid"));

        let err =
            ScenarioSpec::from_json_str(r#"{"name": "bad", "grid": {"bultin": "x"}}"#).unwrap_err();
        assert_eq!(err.field(), Some("grid.bultin"));
    }

    /// A scenario that sets every time-valued field, each to a distinct
    /// value so a test can swap exactly one.
    const TIMED: &str = r#"{"name": "t", "grid": {"builtin": "builtin://imc2015-floor"},
        "workload": {"start_hour": 10, "duration_s": 20, "sample_ms": 500},
        "probing": {"fixed_s": 7},
        "disturbances": [{"name": "s", "at_s": 1, "duration_s": 4, "ramp_s": 0.5,
                          "kind": "probe-dropout"}],
        "couplings": [{"source": "s", "after_ms": 250, "duration_s": 3,
                       "effect": "probe-dropout"}],
        "assertions": [{"hybrid-at-least-best-medium": {"within_s": 2}},
                       {"estimate-within": {"tolerance_frac": 0.1, "settle_s": 6}},
                       {"recovery-within": {"within_s": 5, "frac": 0.8}}]}"#;

    #[test]
    fn every_time_field_in_range_parses() {
        ScenarioSpec::from_json_str(TIMED).expect("valid");
    }

    /// One test per time-valued field: an out-of-range value that would
    /// overflow the simulated clock at run time is a validation error
    /// naming the field's path.
    macro_rules! out_of_range {
        ($($test:ident: $from:literal => $to:literal at $field:literal;)*) => {$(
            #[test]
            fn $test() {
                assert!(TIMED.contains($from), "template lacks {}", $from);
                let doc = TIMED.replacen($from, $to, 1);
                let err = ScenarioSpec::from_json_str(&doc).unwrap_err();
                assert_eq!(err.field(), Some($field), "{err}");
                assert!(err.to_string().contains(&format!("`{}`", $field)), "{err}");
            }
        )*};
    }

    out_of_range! {
        workload_start_hour_out_of_range: r#""start_hour": 10"# => r#""start_hour": 6000000"#
            at "workload.start_hour";
        workload_duration_out_of_range: r#""duration_s": 20"# => r#""duration_s": 1e12"#
            at "workload.duration_s";
        workload_sample_out_of_range: r#""sample_ms": 500"# => r#""sample_ms": 20000000000000"#
            at "workload.sample_ms";
        disturbance_at_out_of_range: r#""at_s": 1"# => r#""at_s": 1e12"#
            at "disturbances[0].at_s";
        disturbance_duration_out_of_range: r#""duration_s": 4"# => r#""duration_s": 1e12"#
            at "disturbances[0].duration_s";
        disturbance_ramp_out_of_range: r#""ramp_s": 0.5"# => r#""ramp_s": 1e12"#
            at "disturbances[0].ramp_s";
        coupling_after_out_of_range: r#""after_ms": 250"# => r#""after_ms": 20000000000000"#
            at "couplings[0].after_ms";
        coupling_duration_out_of_range: r#""duration_s": 3"# => r#""duration_s": 1e12"#
            at "couplings[0].duration_s";
        hybrid_within_out_of_range: r#""within_s": 2"# => r#""within_s": 1e12"#
            at "assertions[0].hybrid-at-least-best-medium.within_s";
        estimate_settle_out_of_range: r#""settle_s": 6"# => r#""settle_s": 1e12"#
            at "assertions[1].estimate-within.settle_s";
        recovery_within_out_of_range: r#""within_s": 5"# => r#""within_s": 1e12"#
            at "assertions[2].recovery-within.within_s";
        probing_fixed_out_of_range: r#""fixed_s": 7"# => r#""fixed_s": 1e12"#
            at "probing.fixed_s";
    }

    #[test]
    fn run_end_past_the_clock_names_the_workload() {
        // Each value fits on its own; their sum with the warm-up does not.
        let doc = TIMED
            .replacen(r#""start_hour": 10"#, r#""start_hour": 600000"#, 1)
            .replacen(r#""duration_s": 20"#, r#""duration_s": 2e8"#, 1);
        let err = ScenarioSpec::from_json_str(&doc).unwrap_err();
        assert_eq!(err.field(), Some("workload"), "{err}");
        assert!(err.to_string().contains("the run ends past"), "{err}");
        let doc = TIMED.replacen(r#""duration_s": 20"#, r#""duration_s": 2.30584e9"#, 1);
        let err = ScenarioSpec::from_json_str(&doc).unwrap_err();
        assert_eq!(err.field(), Some("workload"), "{err}");
    }

    #[test]
    fn malformed_json_is_a_parse_error_not_a_panic() {
        let err = ScenarioSpec::from_json_str("{not json").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { .. }));
    }

    #[test]
    fn dist_spec_validates_and_samples_in_range() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "d", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 4, "stations_per_board": 2,
                "drop_length_m": {"uniform_m": [2.0, 8.0]}}}}"#,
        )
        .expect("valid");
        let GridSpec::Generator(g) = &spec.grid else {
            panic!("generator expected")
        };
        for h in [0u64, 1, u64::MAX, 0xdead_beef] {
            let x = g.drop_length_m.sample(h);
            assert!((2.0..=8.0).contains(&x), "{x}");
        }

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "d", "grid": {"generator": {
                "floors": 1, "boards_per_floor": 1,
                "offices_per_board": 4, "stations_per_board": 2,
                "drop_length_m": {"uniform_m": [9.0, 2.0]}}}}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("grid.generator.drop_length_m.uniform_m"));
    }

    #[test]
    fn probing_and_schedule_forms_parse() {
        let spec = ScenarioSpec::from_json_str(
            r#"{"name": "p", "probing": {"fixed_s": 7.0},
                "grid": {"builtin": "builtin://imc2015-floor"}}"#,
        )
        .expect("valid");
        assert_eq!(spec.probing, ProbingPolicy::Fixed(Duration::from_secs(7)));

        let err = ScenarioSpec::from_json_str(
            r#"{"name": "p", "probing": "aggressive",
                "grid": {"builtin": "builtin://imc2015-floor"}}"#,
        )
        .unwrap_err();
        assert_eq!(err.field(), Some("probing"));
    }
}
