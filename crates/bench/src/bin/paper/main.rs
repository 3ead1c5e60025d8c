//! Regenerate one figure or table of the paper's evaluation:
//!
//! ```text
//! paper <name>        # fig03 … fig24, table3, ablation or vendors
//! ```
//!
//! Each entry prints its rendered text on stdout and writes
//! `out/<name>.manifest.json` through [`RunGuard`]. The renderers live in
//! submodules that mirror `electrifi::experiments`; this file holds the
//! name table and the run scaffolding they share. `ELECTRIFI_SCALE`
//! selects Quick or Paper scale for the entries that honour it.

mod capacity;
mod extras;
mod hybrid;
mod retrans;
mod spatial;
mod temporal;

use electrifi::experiments::{Scale, PAPER_SEED};
use electrifi::PaperEnv;
use electrifi_bench::{gate, scale_from_env, RunGuard};

/// What an entry renders from.
enum Render {
    /// The paper floor, built from [`PAPER_SEED`] after the run starts
    /// so that the floor build's metrics land in the manifest.
    Floor(fn(&PaperEnv, Scale)),
    /// Typed data alone; the run records seed 0 and builds no floor.
    Static(fn()),
}

/// One reproducible figure or table.
struct Entry {
    name: &'static str,
    /// A scale the entry always runs at, or `None` to read
    /// `ELECTRIFI_SCALE`.
    scale: Option<Scale>,
    render: Render,
}

const fn env_scaled(name: &'static str, render: fn(&PaperEnv, Scale)) -> Entry {
    Entry {
        name,
        scale: None,
        render: Render::Floor(render),
    }
}

const ENTRIES: &[Entry] = &[
    env_scaled("fig03", spatial::fig03),
    env_scaled("fig04", temporal::fig04),
    env_scaled("fig06", spatial::fig06),
    env_scaled("fig07", spatial::fig07),
    // Fig. 9's runner ignores the scale: a 1.5 s capture at either one.
    Entry {
        name: "fig09",
        scale: Some(Scale::Paper),
        render: Render::Floor(temporal::fig09),
    },
    env_scaled("fig10", temporal::fig10),
    env_scaled("fig11", temporal::fig11),
    env_scaled("fig12", temporal::fig12),
    env_scaled("fig13", temporal::fig13),
    env_scaled("fig14", temporal::fig14),
    env_scaled("fig15", capacity::fig15),
    env_scaled("fig16", capacity::fig16),
    env_scaled("fig17", capacity::fig17),
    env_scaled("fig18", capacity::fig18),
    env_scaled("fig19", capacity::fig19),
    env_scaled("fig20", hybrid::fig20),
    env_scaled("fig21", retrans::fig21),
    env_scaled("fig22", retrans::fig22),
    env_scaled("fig23", retrans::fig23),
    env_scaled("fig24", retrans::fig24),
    Entry {
        name: "table3",
        scale: Some(Scale::Paper),
        render: Render::Static(extras::table3),
    },
    // The ablation's comparisons are Quick-scale runs at either scale.
    Entry {
        name: "ablation",
        scale: Some(Scale::Quick),
        render: Render::Floor(extras::ablation),
    },
    env_scaled("vendors", extras::vendors),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let entry = match (args.next(), args.next()) {
        (Some(name), None) => ENTRIES.iter().find(|e| e.name == name),
        _ => None,
    };
    let Some(entry) = entry else {
        let names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        gate::usage_exit(format!("usage: paper <name>, one of: {}", names.join(" ")));
    };
    let scale = entry.scale.unwrap_or_else(scale_from_env);
    match entry.render {
        Render::Floor(render) => {
            let run = RunGuard::begin(entry.name, PAPER_SEED, scale);
            let env = PaperEnv::new(PAPER_SEED);
            render(&env, scale);
            run.finish();
        }
        Render::Static(render) => {
            let run = RunGuard::begin(entry.name, 0, scale);
            render();
            run.finish();
        }
    }
}
