//! # electrifi-testbed — the paper's 19-station office floor
//!
//! Reconstruction of the measurement testbed of §3.1 / Fig. 2: 19 Alix
//! boards (stations 0–18) on one 70 m × 40 m university floor with two
//! electrical distribution boards. The floor's two boards are joined only
//! in the basement (>200 m of cable), which makes inter-board PLC
//! communication infeasible; hence **two logical PLC networks** with
//! statically pinned CCos:
//!
//! * network **A** — stations 0–11 on board **B1**, CCo at station 11;
//! * network **B** — stations 12–18 on board **B2**, CCo at station 15.
//!
//! Every station has both a PLC outlet (with a cable route over the
//! wiring graph) and a WiFi radio (with a floor position), so the same
//! node pair can be measured on both mediums, exactly as the paper does.
//!
//! The electrical plan is generated deterministically from a seed:
//! corridor trunks hang office drops, and offices contain the appliance
//! population of a working university floor (PCs, monitors, lighting
//! banks on the 9 pm-off schedule, a kitchenette with fridge, coffee
//! machine and microwave per board, printers, chargers, a couple of
//! space heaters). Appliances drive both spatial variation (impedance
//! taps) and temporal variation (schedules, noise), per §5 and §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

use plc_phy::channel::{LinkDir, PlcChannel};
use plc_phy::PlcTechnology;
use serde::{Deserialize, Serialize};
use simnet::appliance::ApplianceKind;
use simnet::geometry::{Floor, Point};
use simnet::grid::{Grid, NodeId};
use simnet::schedule::Schedule;

/// Station identifier, 0–18 as in the paper's Fig. 2.
pub type StationId = u16;

/// Logical PLC network membership.
///
/// The paper's floor has exactly two networks (`A` and `B`, one per
/// distribution board). Scenario-generated grids can have any number of
/// boards, each forming its own logical network `Net(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlcNetwork {
    /// Board B1, stations 0–11, CCo = 11.
    A,
    /// Board B2, stations 12–18, CCo = 15.
    B,
    /// The `i`-th logical network of a generated or explicitly declared
    /// grid (one per distribution board).
    Net(u16),
}

/// One testbed station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Station number (0–18).
    pub id: StationId,
    /// The outlet its PLC modem is plugged into.
    pub outlet: NodeId,
    /// WiFi radio position on the floor.
    pub pos: Point,
    /// Logical PLC network.
    pub network: PlcNetwork,
}

/// The reconstructed testbed.
#[derive(Debug, Clone)]
pub struct Testbed {
    /// The electrical wiring graph with all appliances attached.
    pub grid: Grid,
    /// The floor plan for WiFi propagation.
    pub floor: Floor,
    /// All 19 stations.
    pub stations: Vec<Station>,
    /// Seed the testbed was generated from.
    pub seed: u64,
}

/// One station's placement: (id, network, corridor offset from the board
/// in m, office-drop length in m, floor position).
type StationLayout = (StationId, PlcNetwork, f64, f64, (f64, f64));

/// Station layout. Corridor offsets and drops are chosen so same-network
/// cable distances span the paper's 20–100 m (Fig. 7); positions
/// approximate Fig. 2.
const LAYOUT: [StationLayout; 19] = [
    (0, PlcNetwork::A, 26.0, 5.0, (36.0, 30.0)),
    (1, PlcNetwork::A, 30.0, 4.0, (33.0, 35.0)),
    (2, PlcNetwork::A, 22.0, 6.0, (39.0, 33.0)),
    (3, PlcNetwork::A, 16.0, 4.0, (45.0, 34.0)),
    (4, PlcNetwork::A, 12.0, 7.0, (50.0, 32.0)),
    (5, PlcNetwork::A, 6.0, 5.0, (56.0, 32.0)),
    (6, PlcNetwork::A, 20.0, 9.0, (44.0, 24.0)),
    (7, PlcNetwork::A, 14.0, 8.0, (50.0, 24.0)),
    (8, PlcNetwork::A, 8.0, 6.0, (56.0, 22.0)),
    (9, PlcNetwork::A, 36.0, 6.0, (36.0, 15.0)),
    (10, PlcNetwork::A, 44.0, 8.0, (44.0, 10.0)),
    (11, PlcNetwork::A, 3.0, 4.0, (52.0, 8.0)),
    (12, PlcNetwork::B, 22.0, 5.0, (7.0, 33.0)),
    (13, PlcNetwork::B, 16.0, 6.0, (9.0, 27.0)),
    (14, PlcNetwork::B, 19.0, 8.0, (4.0, 27.0)),
    (15, PlcNetwork::B, 4.0, 4.0, (13.0, 22.0)),
    (16, PlcNetwork::B, 8.0, 5.0, (13.0, 15.0)),
    (17, PlcNetwork::B, 12.0, 7.0, (9.0, 9.0)),
    (18, PlcNetwork::B, 26.0, 9.0, (5.0, 5.0)),
];

/// Length of the basement cable joining the two boards (paper §3.1:
/// "more than 200 m").
pub const INTER_BOARD_CABLE_M: f64 = 220.0;

/// Spacing of corridor junction boxes, metres of cable.
const JUNCTION_SPACING_M: f64 = 2.0;

/// Cable-route elongation: in-ceiling cable runs snake between rooms, so
/// a corridor offset of `x` metres of floor plan costs `x ×
/// CABLE_ROUTE_FACTOR` metres of cable. Calibrated so the same-network
/// cable distances span the paper's 20–100 m (Fig. 7).
const CABLE_ROUTE_FACTOR: f64 = 1.8;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Testbed {
    /// Build the paper's floor. `seed` controls appliance placement and
    /// schedules (the electrical plan and station layout are fixed).
    pub fn paper_floor(seed: u64) -> Testbed {
        let mut grid = Grid::new();
        let floor = Floor::new(70.0, 40.0);
        let b1 = grid.add_board("B1");
        let b2 = grid.add_board("B2");
        grid.connect(b1, b2, INTER_BOARD_CABLE_M);

        // Corridor trunks: junction chains every JUNCTION_SPACING_M.
        let build_corridor = |grid: &mut Grid, board: NodeId, name: &str, length_m: f64| {
            let n = (length_m / JUNCTION_SPACING_M).ceil() as usize;
            let mut nodes = vec![board];
            for k in 1..=n {
                let j = grid.add_junction(format!("{name}-j{k}"));
                let prev = *nodes.last().expect("non-empty");
                grid.connect(prev, j, JUNCTION_SPACING_M);
                nodes.push(j);
            }
            nodes
        };
        let corridor_a = build_corridor(&mut grid, b1, "A", 48.0 * CABLE_ROUTE_FACTOR);
        let corridor_b = build_corridor(&mut grid, b2, "B", 30.0 * CABLE_ROUTE_FACTOR);

        // Helper: the corridor node nearest a given cable offset.
        let corridor_node = |corridor: &[NodeId], offset_m: f64| -> NodeId {
            let routed = offset_m * CABLE_ROUTE_FACTOR;
            let idx = ((routed / JUNCTION_SPACING_M).round() as usize).min(corridor.len() - 1);
            corridor[idx.max(1)]
        };

        let mut stations = Vec::with_capacity(LAYOUT.len());
        for &(id, network, corridor_m, drop_m, (x, y)) in &LAYOUT {
            let corridor = match network {
                PlcNetwork::A => &corridor_a,
                PlcNetwork::B => &corridor_b,
                PlcNetwork::Net(_) => unreachable!("paper floor only has networks A and B"),
            };
            let tap = corridor_node(corridor, corridor_m);
            // The office drop: junction behind the wall, then outlets.
            let office = grid.add_junction(format!("office-{id}"));
            grid.connect(tap, office, drop_m);
            let st_outlet = grid.add_outlet(format!("station-{id}"));
            grid.connect(office, st_outlet, 1.5);
            // Office appliances: every office has a PC + monitor; extras
            // vary by seed.
            let h = mix(seed ^ (id as u64 + 1).wrapping_mul(0x9e37));
            let desk = grid.add_outlet(format!("desk-{id}"));
            grid.connect(office, desk, 2.0 + (h % 4) as f64);
            grid.attach(
                desk,
                ApplianceKind::DesktopPc,
                Schedule::OfficeHours { seed: h ^ 0x11 },
            );
            grid.attach(
                desk,
                ApplianceKind::Monitor,
                Schedule::OfficeHours { seed: h ^ 0x22 },
            );
            if h.is_multiple_of(3) {
                let extra = grid.add_outlet(format!("charger-{id}"));
                grid.connect(office, extra, 1.0 + ((h >> 3) & 3) as f64);
                grid.attach(
                    extra,
                    ApplianceKind::Charger,
                    Schedule::Sporadic {
                        p_active: 0.5,
                        seed: h ^ 0x33,
                    },
                );
            }
            if h.is_multiple_of(7) {
                let heat = grid.add_outlet(format!("heater-{id}"));
                grid.connect(office, heat, 2.5);
                grid.attach(
                    heat,
                    ApplianceKind::SpaceHeater,
                    Schedule::OfficeHours { seed: h ^ 0x44 },
                );
            }
            stations.push(Station {
                id,
                outlet: st_outlet,
                pos: Point::new(x, y),
                network,
            });
        }

        // Corridor lighting banks: one every ~10 m on each corridor, on
        // the building-wide 9 pm-off schedule (Fig. 12).
        for (corridor, name) in [(&corridor_a, "A"), (&corridor_b, "B")] {
            let mut offset = 5.0;
            while offset < (corridor.len() - 1) as f64 * JUNCTION_SPACING_M {
                let tap = corridor_node(corridor, offset);
                let o = grid.add_outlet(format!("lights-{name}-{offset}"));
                grid.connect(tap, o, 1.0);
                grid.attach(o, ApplianceKind::Lighting, Schedule::BuildingLights);
                offset += 10.0;
            }
        }

        // One kitchenette and one printer room per board.
        for (corridor, name, seed_tag) in [(&corridor_a, "A", 0xAAu64), (&corridor_b, "B", 0xBB)] {
            let h = mix(seed ^ seed_tag);
            let kitchen_tap = corridor_node(corridor, 10.0);
            let kitchen = grid.add_junction(format!("kitchen-{name}"));
            grid.connect(kitchen_tap, kitchen, 6.0);
            let fridge = grid.add_outlet(format!("fridge-{name}"));
            grid.connect(kitchen, fridge, 1.0);
            grid.attach(
                fridge,
                ApplianceKind::Fridge,
                Schedule::DutyCycle {
                    on_s: 900,
                    off_s: 1800,
                    seed: h ^ 0x55,
                },
            );
            let coffee = grid.add_outlet(format!("coffee-{name}"));
            grid.connect(kitchen, coffee, 1.5);
            grid.attach(
                coffee,
                ApplianceKind::CoffeeMachine,
                Schedule::Sporadic {
                    p_active: 0.4,
                    seed: h ^ 0x66,
                },
            );
            let micro = grid.add_outlet(format!("microwave-{name}"));
            grid.connect(kitchen, micro, 1.5);
            grid.attach(
                micro,
                ApplianceKind::Microwave,
                Schedule::Sporadic {
                    p_active: 0.12,
                    seed: h ^ 0x77,
                },
            );
            let printer_tap = corridor_node(corridor, 20.0);
            let printer = grid.add_outlet(format!("printer-{name}"));
            grid.connect(printer_tap, printer, 3.0);
            grid.attach(
                printer,
                ApplianceKind::LaserPrinter,
                Schedule::Sporadic {
                    p_active: 0.35,
                    seed: h ^ 0x88,
                },
            );
            // Always-on IT rack near the board.
            let it_tap = corridor_node(corridor, 2.0);
            let it = grid.add_outlet(format!("it-{name}"));
            grid.connect(it_tap, it, 2.0);
            grid.attach(it, ApplianceKind::ItEquipment, Schedule::AlwaysOn);
        }

        Testbed {
            grid,
            floor,
            stations,
            seed,
        }
    }

    /// Look up a station.
    pub fn station(&self, id: StationId) -> &Station {
        self.stations
            .iter()
            .find(|s| s.id == id)
            .unwrap_or_else(|| panic!("unknown station {id}"))
    }

    /// Stations of one logical PLC network, in id order.
    pub fn network_members(&self, network: PlcNetwork) -> Vec<StationId> {
        self.stations
            .iter()
            .filter(|s| s.network == network)
            .map(|s| s.id)
            .collect()
    }

    /// All directed same-network station pairs — the candidate PLC links.
    /// 12·11 + 7·6 = 174 candidates; the paper reports 144 *formed*
    /// links, i.e. pairs whose modems actually associate (see
    /// EXPERIMENTS.md).
    pub fn plc_pairs(&self) -> Vec<(StationId, StationId)> {
        let mut out = Vec::new();
        for a in &self.stations {
            for b in &self.stations {
                if a.id != b.id && a.network == b.network {
                    out.push((a.id, b.id));
                }
            }
        }
        out
    }

    /// All directed station pairs regardless of network — the WiFi
    /// candidates (WiFi does not care about distribution boards).
    pub fn all_pairs(&self) -> Vec<(StationId, StationId)> {
        let mut out = Vec::new();
        for a in &self.stations {
            for b in &self.stations {
                if a.id != b.id {
                    out.push((a.id, b.id));
                }
            }
        }
        out
    }

    /// Outlet bindings `(id, outlet)` for the stations of one network —
    /// the input `plc_mac::sim::PlcSim::new` expects.
    pub fn plc_outlets(&self, network: PlcNetwork) -> Vec<(StationId, NodeId)> {
        self.stations
            .iter()
            .filter(|s| s.network == network)
            .map(|s| (s.id, s.outlet))
            .collect()
    }

    /// Cable distance between two stations, metres.
    pub fn cable_distance_m(&self, a: StationId, b: StationId) -> Option<f64> {
        self.grid
            .cable_distance(self.station(a).outlet, self.station(b).outlet)
    }

    /// Euclidean (WiFi) distance between two stations, metres.
    pub fn air_distance_m(&self, a: StationId, b: StationId) -> f64 {
        self.station(a).pos.distance(&self.station(b).pos)
    }

    /// Build the physical PLC channel for a station pair. The channel is
    /// undirected and derived from the unordered pair so both directions
    /// share the same physical medium; use [`Testbed::link_dir`] to pick
    /// the direction.
    pub fn plc_channel(
        &self,
        a: StationId,
        b: StationId,
        technology: PlcTechnology,
    ) -> Option<PlcChannel> {
        let (lo, hi) = (a.min(b), a.max(b));
        let seed = self
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(((lo as u64) << 16) | hi as u64);
        PlcChannel::from_grid(
            &self.grid,
            self.station(lo).outlet,
            self.station(hi).outlet,
            technology,
            seed,
        )
    }

    /// Direction selector matching [`Testbed::plc_channel`]'s unordered
    /// construction: `AtoB` when `a < b`.
    pub fn link_dir(a: StationId, b: StationId) -> LinkDir {
        if a < b {
            LinkDir::AtoB
        } else {
            LinkDir::BtoA
        }
    }

    /// Build the WiFi channel for a station pair (undirected; WiFi links
    /// in the model are reciprocal up to the per-seed shadowing).
    pub fn wifi_channel(&self, a: StationId, b: StationId) -> wifi80211::WifiChannel {
        let (lo, hi) = (a.min(b), a.max(b));
        let seed = self
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add(((lo as u64) << 16) | hi as u64);
        wifi80211::WifiChannel::new(
            &self.floor,
            self.station(lo).pos,
            self.station(hi).pos,
            seed,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::Time;

    fn tb() -> Testbed {
        Testbed::paper_floor(2015)
    }

    #[test]
    fn nineteen_stations_two_networks() {
        let t = tb();
        assert_eq!(t.stations.len(), 19);
        assert_eq!(t.network_members(PlcNetwork::A).len(), 12);
        assert_eq!(t.network_members(PlcNetwork::B).len(), 7);
        // Generated networks have no members on the paper floor.
        assert!(t.network_members(PlcNetwork::Net(0)).is_empty());
    }

    #[test]
    fn pair_counts_match_the_combinatorics() {
        let t = tb();
        assert_eq!(t.plc_pairs().len(), 12 * 11 + 7 * 6); // 174 candidates
        assert_eq!(t.all_pairs().len(), 19 * 18);
    }

    #[test]
    fn same_network_cable_distances_span_the_paper_range() {
        let t = tb();
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for (a, b) in t.plc_pairs() {
            let d = t.cable_distance_m(a, b).expect("same floor is wired");
            min = min.min(d);
            max = max.max(d);
        }
        // Fig. 7's x-axis runs from ~20 m to ~100 m.
        assert!(min > 5.0 && min < 30.0, "min={min}");
        assert!(max > 60.0 && max < 120.0, "max={max}");
    }

    #[test]
    fn cross_board_pairs_are_far() {
        let t = tb();
        let d = t.cable_distance_m(0, 15).expect("basement cable exists");
        assert!(d > INTER_BOARD_CABLE_M, "d={d}");
    }

    #[test]
    fn plc_channels_exist_and_degrade_across_boards() {
        let t = tb();
        let near = t
            .plc_channel(5, 8, PlcTechnology::HpAv)
            .expect("same board");
        let cross = t
            .plc_channel(0, 15, PlcTechnology::HpAv)
            .expect("wired via basement");
        let tmeas = Time::from_hours(14);
        let snr_near = near.spectrum(Testbed::link_dir(5, 8), tmeas).mean_db();
        let snr_cross = cross.spectrum(Testbed::link_dir(0, 15), tmeas).mean_db();
        assert!(
            snr_near > snr_cross + 20.0,
            "near={snr_near} cross={snr_cross}"
        );
        assert!(snr_cross < 5.0, "cross-board must be hopeless: {snr_cross}");
    }

    #[test]
    fn wifi_positions_fit_the_floor() {
        let t = tb();
        for s in &t.stations {
            assert!((0.0..=70.0).contains(&s.pos.x), "station {}", s.id);
            assert!((0.0..=40.0).contains(&s.pos.y), "station {}", s.id);
        }
        // The two clusters are separated: max distance well above 35 m
        // (wifi blind spots exist), min below 10 m.
        let mut dmax: f64 = 0.0;
        let mut dmin = f64::INFINITY;
        for (a, b) in t.all_pairs() {
            let d = t.air_distance_m(a, b);
            dmax = dmax.max(d);
            dmin = dmin.min(d);
        }
        assert!(dmax > 40.0, "dmax={dmax}");
        assert!(dmin < 10.0, "dmin={dmin}");
    }

    #[test]
    fn appliances_are_plentiful_and_scheduled() {
        let t = tb();
        // 19 offices × (PC + monitor) + lighting + kitchens + printers…
        assert!(
            t.grid.appliances().len() > 50,
            "{}",
            t.grid.appliances().len()
        );
        // Lighting exists and follows the 9pm rule.
        let lighting: Vec<_> = t
            .grid
            .appliances()
            .iter()
            .filter(|a| a.kind == ApplianceKind::Lighting)
            .collect();
        assert!(lighting.len() >= 6);
        for l in &lighting {
            assert!(l.schedule.is_on(Time::from_hours(12)));
            assert!(!l.schedule.is_on(Time::from_hours(22)));
        }
    }

    #[test]
    fn construction_is_deterministic_per_seed() {
        let a = Testbed::paper_floor(7);
        let b = Testbed::paper_floor(7);
        assert_eq!(a.grid.appliances().len(), b.grid.appliances().len());
        assert_eq!(a.cable_distance_m(0, 5), b.cable_distance_m(0, 5));
        let c = Testbed::paper_floor(8);
        let count_a = a.grid.appliances().len();
        let count_c = c.grid.appliances().len();
        // Different seeds change the appliance population or at least the
        // channel signatures.
        let ca = a.plc_channel(1, 6, PlcTechnology::HpAv).unwrap();
        let cc = c.plc_channel(1, 6, PlcTechnology::HpAv).unwrap();
        let t0 = Time::from_hours(12);
        assert!(
            ca.spectrum(LinkDir::AtoB, t0) != cc.spectrum(LinkDir::AtoB, t0) || count_a != count_c
        );
    }

    #[test]
    fn outlets_and_positions_export_for_sims() {
        let t = tb();
        assert_eq!(t.plc_outlets(PlcNetwork::A).len(), 12);
        assert_eq!(t.plc_outlets(PlcNetwork::B).len(), 7);
    }
}
