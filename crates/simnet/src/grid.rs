//! The electrical network: the medium PLC runs over.
//!
//! A [`Grid`] is a graph of distribution boards, junction boxes and wall
//! outlets connected by mains cable segments. Appliances attach to outlets.
//! The PLC channel model in `plc-phy` derives everything it needs from this
//! graph:
//!
//! * **cable distance** between two modems (shortest path over the wiring)
//!   — throughput degrades with distance (paper Fig. 7);
//! * **discontinuities** along that path — branch junctions and appliance
//!   outlets create impedance mismatches, hence reflections, hence
//!   multipath fading (paper Fig. 5);
//! * the **appliances** near each endpoint — an appliance with a strong
//!   mismatch near *one* endpoint attenuates the two link directions
//!   differently, producing the severe asymmetry of §5.

use crate::appliance::{ApplianceKind, ApplianceProfile};
use crate::schedule::Schedule;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Identifier of a node (board, junction or outlet) in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Identifier of an attached appliance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApplianceId(pub usize);

/// What a grid node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A distribution board (fuse box). The testbed has two, B1 and B2,
    /// joined by a long basement cable.
    Board,
    /// A junction box where cables branch.
    Junction,
    /// A wall outlet where modems and appliances plug in.
    Outlet,
}

/// A node in the electrical graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// What the node is.
    pub kind: NodeKind,
    /// Human-readable label (used in diagnostics).
    pub name: String,
}

/// An appliance attached to an outlet.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttachedAppliance {
    /// The outlet the appliance is plugged into.
    pub outlet: NodeId,
    /// What kind of appliance it is.
    pub kind: ApplianceKind,
    /// When it is on.
    pub schedule: Schedule,
}

impl AttachedAppliance {
    /// The appliance's electrical profile.
    pub fn profile(&self) -> ApplianceProfile {
        self.kind.profile()
    }
}

/// A shortest path between two nodes, with its total cable length.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathInfo {
    /// Nodes along the path, endpoints included.
    pub nodes: Vec<NodeId>,
    /// Total cable length in metres.
    pub length_m: f64,
}

/// An impedance discontinuity along a transmission path: a point where the
/// signal is partially reflected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Discontinuity {
    /// The node where the discontinuity sits.
    pub node: NodeId,
    /// Number of cable branches leaving the path at this node (0 for a
    /// plain outlet on the path).
    pub off_path_branches: usize,
    /// Appliances electrically visible at this discontinuity: attached at
    /// the node itself or hanging off its side branches. Each entry is the
    /// appliance id plus its extra cable distance behind the node.
    pub appliances: Vec<(ApplianceId, f64)>,
}

/// A structural error raised while building a [`Grid`].
///
/// The fallible construction API ([`Grid::try_connect`],
/// [`Grid::try_attach`], [`Grid::try_node`]) returns these instead of
/// panicking, so callers assembling grids from untrusted input (e.g. the
/// `scenario` crate's loader) can surface actionable diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GridError {
    /// A node id referenced a node that does not exist.
    UnknownNode {
        /// The offending id.
        id: NodeId,
        /// Number of nodes the grid actually has.
        node_count: usize,
    },
    /// A cable was declared from a node to itself.
    SelfLoop {
        /// The node at both ends.
        node: NodeId,
    },
    /// A cable segment with a non-positive length.
    NonPositiveLength {
        /// One endpoint.
        a: NodeId,
        /// Other endpoint.
        b: NodeId,
        /// The rejected length.
        length_m: f64,
    },
    /// An appliance was attached to a node that is not an outlet.
    NotAnOutlet {
        /// The offending node.
        node: NodeId,
        /// What the node actually is.
        kind: NodeKind,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::UnknownNode { id, node_count } => {
                write!(f, "unknown node id {} (grid has {node_count} nodes)", id.0)
            }
            GridError::SelfLoop { node } => {
                write!(f, "self-loop cable at node {}", node.0)
            }
            GridError::NonPositiveLength { a, b, length_m } => write!(
                f,
                "cable length must be positive: {length_m} m between nodes {} and {}",
                a.0, b.0
            ),
            GridError::NotAnOutlet { node, kind } => write!(
                f,
                "appliances attach to outlets, but node {} is a {kind:?}",
                node.0
            ),
        }
    }
}

impl std::error::Error for GridError {}

/// The electrical network graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Grid {
    nodes: Vec<Node>,
    /// adjacency: for each node, (neighbor, cable length m).
    adj: Vec<Vec<(NodeId, f64)>>,
    appliances: Vec<AttachedAppliance>,
}

impl Grid {
    /// Create an empty grid.
    pub fn new() -> Self {
        Grid::default()
    }

    /// Add a node of the given kind.
    pub fn add_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            kind,
            name: name.into(),
        });
        self.adj.push(Vec::new());
        id
    }

    /// Add a distribution board.
    pub fn add_board(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Board, name)
    }

    /// Add a junction box.
    pub fn add_junction(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Junction, name)
    }

    /// Add a wall outlet.
    pub fn add_outlet(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Outlet, name)
    }

    /// Connect two nodes with a cable segment of the given length,
    /// reporting structural problems instead of panicking.
    pub fn try_connect(&mut self, a: NodeId, b: NodeId, length_m: f64) -> Result<(), GridError> {
        let n = self.nodes.len();
        for id in [a, b] {
            if id.0 >= n {
                return Err(GridError::UnknownNode { id, node_count: n });
            }
        }
        if a == b {
            return Err(GridError::SelfLoop { node: a });
        }
        // NaN must land here too, hence the explicit is_nan arm.
        if length_m.is_nan() || length_m <= 0.0 {
            return Err(GridError::NonPositiveLength { a, b, length_m });
        }
        self.adj[a.0].push((b, length_m));
        self.adj[b.0].push((a, length_m));
        Ok(())
    }

    /// Connect two nodes with a cable segment of the given length.
    ///
    /// # Panics
    /// Panics if either node id is out of range, the nodes are equal, or
    /// the length is not strictly positive. Use [`Grid::try_connect`] to
    /// get a typed [`GridError`] instead.
    pub fn connect(&mut self, a: NodeId, b: NodeId, length_m: f64) {
        self.try_connect(a, b, length_m)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Plug an appliance into an outlet, reporting structural problems
    /// instead of panicking.
    pub fn try_attach(
        &mut self,
        outlet: NodeId,
        kind: ApplianceKind,
        schedule: Schedule,
    ) -> Result<ApplianceId, GridError> {
        let node = self.try_node(outlet)?;
        if node.kind != NodeKind::Outlet {
            return Err(GridError::NotAnOutlet {
                node: outlet,
                kind: node.kind,
            });
        }
        let id = ApplianceId(self.appliances.len());
        self.appliances.push(AttachedAppliance {
            outlet,
            kind,
            schedule,
        });
        Ok(id)
    }

    /// Plug an appliance into an outlet.
    ///
    /// # Panics
    /// Panics if the node does not exist or is not an outlet. Use
    /// [`Grid::try_attach`] to get a typed [`GridError`] instead.
    pub fn attach(
        &mut self,
        outlet: NodeId,
        kind: ApplianceKind,
        schedule: Schedule,
    ) -> ApplianceId {
        self.try_attach(outlet, kind, schedule)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Look up a node, reporting an out-of-range id as a [`GridError`].
    pub fn try_node(&self, id: NodeId) -> Result<&Node, GridError> {
        self.nodes.get(id.0).ok_or(GridError::UnknownNode {
            id,
            node_count: self.nodes.len(),
        })
    }

    /// Look up a node.
    ///
    /// # Panics
    /// Panics if the id is out of range. Use [`Grid::try_node`] to get a
    /// typed [`GridError`] instead.
    pub fn node(&self, id: NodeId) -> &Node {
        self.try_node(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// All attached appliances.
    pub fn appliances(&self) -> &[AttachedAppliance] {
        &self.appliances
    }

    /// Look up an appliance.
    pub fn appliance(&self, id: ApplianceId) -> &AttachedAppliance {
        &self.appliances[id.0]
    }

    /// Shortest cable path between two nodes (Dijkstra). `None` when the
    /// nodes are not electrically connected.
    pub fn shortest_path(&self, a: NodeId, b: NodeId) -> Option<PathInfo> {
        if a == b {
            return Some(PathInfo {
                nodes: vec![a],
                length_m: 0.0,
            });
        }
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        dist[a.0] = 0.0;
        heap.push(Reverse((0, a.0)));
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if d > dist[u] {
                continue;
            }
            if u == b.0 {
                break;
            }
            for &(v, len) in &self.adj[u] {
                let nd = d + len;
                if nd < dist[v.0] {
                    dist[v.0] = nd;
                    prev[v.0] = Some(NodeId(u));
                    heap.push(Reverse((nd.to_bits(), v.0)));
                }
            }
        }
        if !dist[b.0].is_finite() {
            return None;
        }
        let mut nodes = vec![b];
        let mut cur = b;
        while let Some(p) = prev[cur.0] {
            nodes.push(p);
            cur = p;
            if cur == a {
                break;
            }
        }
        nodes.reverse();
        Some(PathInfo {
            nodes,
            length_m: dist[b.0],
        })
    }

    /// Cable distance between two nodes in metres, `None` if disconnected.
    pub fn cable_distance(&self, a: NodeId, b: NodeId) -> Option<f64> {
        self.shortest_path(a, b).map(|p| p.length_m)
    }

    /// Appliances plugged in at a specific outlet.
    pub fn appliances_at(&self, node: NodeId) -> impl Iterator<Item = ApplianceId> + '_ {
        self.appliances
            .iter()
            .enumerate()
            .filter(move |(_, a)| a.outlet == node)
            .map(|(i, _)| ApplianceId(i))
    }

    /// Appliances within `radius_m` metres of cable from `node`, with
    /// their cable distance (BFS over the wiring). Used for the
    /// receiver-local noise and the transmitter coupling loss of the PLC
    /// channel model.
    pub fn appliances_within(&self, node: NodeId, radius_m: f64) -> Vec<(ApplianceId, f64)> {
        use std::cmp::Reverse;
        let mut dist = vec![f64::INFINITY; self.nodes.len()];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        dist[node.0] = 0.0;
        heap.push(Reverse((0u64, node.0)));
        while let Some(Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if d > dist[u] {
                continue;
            }
            for &(v, len) in &self.adj[u] {
                let nd = d + len;
                if nd <= radius_m && nd < dist[v.0] {
                    dist[v.0] = nd;
                    heap.push(Reverse((nd.to_bits(), v.0)));
                }
            }
        }
        self.appliances
            .iter()
            .enumerate()
            .filter(|(_, a)| dist[a.outlet.0].is_finite())
            .map(|(i, a)| (ApplianceId(i), dist[a.outlet.0]))
            .collect()
    }

    /// Impedance discontinuities along a path: every path node that has
    /// off-path branches or attached appliances, with the appliances
    /// electrically visible behind it.
    ///
    /// The search behind a branch is a BFS that does not re-enter the path,
    /// bounded by `max_depth_m` metres of extra cable (reflections from
    /// farther away are attenuated into irrelevance).
    pub fn discontinuities(&self, path: &PathInfo, max_depth_m: f64) -> Vec<Discontinuity> {
        use std::collections::{HashSet, VecDeque};
        let on_path: HashSet<NodeId> = path.nodes.iter().copied().collect();
        let mut out = Vec::new();
        for (i, &node) in path.nodes.iter().enumerate() {
            let prev = if i > 0 { Some(path.nodes[i - 1]) } else { None };
            let next = if i + 1 < path.nodes.len() {
                Some(path.nodes[i + 1])
            } else {
                None
            };
            let off_path_branches = self.adj[node.0]
                .iter()
                .filter(|(nb, _)| Some(*nb) != prev && Some(*nb) != next && !on_path.contains(nb))
                .count();
            // BFS into side branches collecting appliances.
            let mut appliances: Vec<(ApplianceId, f64)> =
                self.appliances_at(node).map(|a| (a, 0.0)).collect();
            let mut visited: HashSet<NodeId> = on_path.clone();
            let mut queue: VecDeque<(NodeId, f64)> = VecDeque::new();
            for &(nb, len) in &self.adj[node.0] {
                if !on_path.contains(&nb) && len <= max_depth_m {
                    queue.push_back((nb, len));
                }
            }
            while let Some((n, d)) = queue.pop_front() {
                if !visited.insert(n) {
                    continue;
                }
                for a in self.appliances_at(n) {
                    appliances.push((a, d));
                }
                for &(nb, len) in &self.adj[n.0] {
                    if d + len <= max_depth_m && !visited.contains(&nb) {
                        queue.push_back((nb, d + len));
                    }
                }
            }
            if off_path_branches > 0 || !appliances.is_empty() {
                out.push(Discontinuity {
                    node,
                    off_path_branches,
                    appliances,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// board -- 10m -- j1 -- 5m -- o1
    ///                  \--- 3m -- o2 (fridge)
    fn tiny_grid() -> (Grid, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Grid::new();
        let board = g.add_board("B1");
        let j1 = g.add_junction("J1");
        let o1 = g.add_outlet("O1");
        let o2 = g.add_outlet("O2");
        g.connect(board, j1, 10.0);
        g.connect(j1, o1, 5.0);
        g.connect(j1, o2, 3.0);
        g.attach(o2, ApplianceKind::Fridge, Schedule::AlwaysOn);
        (g, board, j1, o1, o2)
    }

    #[test]
    fn shortest_path_lengths() {
        let (g, board, _, o1, o2) = tiny_grid();
        assert_eq!(g.cable_distance(board, o1), Some(15.0));
        assert_eq!(g.cable_distance(o1, o2), Some(8.0));
        assert_eq!(g.cable_distance(o1, o1), Some(0.0));
    }

    #[test]
    fn shortest_path_nodes_and_cumdist() {
        let (g, board, j1, o1, _) = tiny_grid();
        let p = g.shortest_path(board, o1).unwrap();
        assert_eq!(p.nodes, vec![board, j1, o1]);
        assert_eq!(p.length_m, 15.0);
    }

    #[test]
    fn disconnected_nodes_have_no_path() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        assert!(g.shortest_path(a, b).is_none());
        assert!(g.cable_distance(a, b).is_none());
    }

    #[test]
    fn dijkstra_prefers_shorter_route() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        let c = g.add_junction("c");
        g.connect(a, b, 100.0);
        g.connect(a, c, 10.0);
        g.connect(c, b, 10.0);
        let p = g.shortest_path(a, b).unwrap();
        assert_eq!(p.length_m, 20.0);
        assert_eq!(p.nodes, vec![a, c, b]);
    }

    #[test]
    fn discontinuities_find_branch_and_appliance() {
        let (g, board, j1, o1, o2) = tiny_grid();
        let p = g.shortest_path(board, o1).unwrap();
        let discs = g.discontinuities(&p, 50.0);
        // j1 has a side branch toward o2 carrying the fridge.
        let dj = discs
            .iter()
            .find(|d| d.node == j1)
            .expect("j1 discontinuity");
        assert_eq!(dj.off_path_branches, 1);
        assert_eq!(dj.appliances.len(), 1);
        let (aid, extra) = dj.appliances[0];
        assert_eq!(g.appliance(aid).outlet, o2);
        assert_eq!(extra, 3.0);
    }

    #[test]
    fn discontinuity_depth_bound_applies() {
        let (g, board, _, o1, _) = tiny_grid();
        let p = g.shortest_path(board, o1).unwrap();
        // With a 1 m search depth the fridge 3 m down the branch is unseen,
        // but the branch itself still counts as a discontinuity.
        let discs = g.discontinuities(&p, 1.0);
        let dj = discs
            .iter()
            .find(|d| d.off_path_branches > 0)
            .expect("branch discontinuity");
        assert!(dj.appliances.is_empty());
    }

    #[test]
    fn appliances_within_respects_radius() {
        let (g, board, _, o1, o2) = tiny_grid();
        // Fridge at o2: 8 m of cable from o1, 13 m from board.
        let near_o1 = g.appliances_within(o1, 10.0);
        assert_eq!(near_o1.len(), 1);
        assert_eq!(near_o1[0].1, 8.0);
        assert!(g.appliances_within(o1, 5.0).is_empty());
        assert_eq!(g.appliances_within(board, 13.0).len(), 1);
        assert_eq!(g.appliances_within(o2, 1.0).len(), 1); // itself at 0 m
    }

    #[test]
    #[should_panic(expected = "appliances attach to outlets")]
    fn attach_rejects_non_outlets() {
        let mut g = Grid::new();
        let b = g.add_board("B");
        g.attach(b, ApplianceKind::Fridge, Schedule::AlwaysOn);
    }

    #[test]
    #[should_panic(expected = "cable length must be positive")]
    fn connect_rejects_zero_length() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        g.connect(a, b, 0.0);
    }

    #[test]
    fn try_connect_reports_typed_errors() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        let b = g.add_outlet("b");
        assert_eq!(
            g.try_connect(a, NodeId(99), 5.0),
            Err(GridError::UnknownNode {
                id: NodeId(99),
                node_count: 2
            })
        );
        assert_eq!(
            g.try_connect(a, a, 5.0),
            Err(GridError::SelfLoop { node: a })
        );
        assert_eq!(
            g.try_connect(a, b, -1.0),
            Err(GridError::NonPositiveLength {
                a,
                b,
                length_m: -1.0
            })
        );
        // NaN lengths are rejected too (NaN != NaN, so match on shape).
        assert!(matches!(
            g.try_connect(a, b, f64::NAN),
            Err(GridError::NonPositiveLength { .. })
        ));
        assert!(g.try_connect(a, b, 5.0).is_ok());
    }

    #[test]
    fn try_attach_reports_typed_errors() {
        let mut g = Grid::new();
        let board = g.add_board("B");
        let o = g.add_outlet("o");
        assert_eq!(
            g.try_attach(board, ApplianceKind::Fridge, Schedule::AlwaysOn),
            Err(GridError::NotAnOutlet {
                node: board,
                kind: NodeKind::Board
            })
        );
        assert_eq!(
            g.try_attach(NodeId(7), ApplianceKind::Fridge, Schedule::AlwaysOn),
            Err(GridError::UnknownNode {
                id: NodeId(7),
                node_count: 2
            })
        );
        assert!(g
            .try_attach(o, ApplianceKind::Fridge, Schedule::AlwaysOn)
            .is_ok());
    }

    #[test]
    fn try_node_reports_unknown_ids() {
        let mut g = Grid::new();
        let a = g.add_outlet("a");
        assert!(g.try_node(a).is_ok());
        let err = g.try_node(NodeId(3)).unwrap_err();
        assert!(err.to_string().contains("unknown node id 3"));
    }

    #[test]
    fn grid_error_messages_are_actionable() {
        let e = GridError::NonPositiveLength {
            a: NodeId(1),
            b: NodeId(2),
            length_m: 0.0,
        };
        assert!(e.to_string().contains("cable length must be positive"));
        let e = GridError::NotAnOutlet {
            node: NodeId(4),
            kind: NodeKind::Junction,
        };
        assert!(e.to_string().contains("appliances attach to outlets"));
    }

    #[test]
    fn appliance_impedance_follows_schedule() {
        let mut g = Grid::new();
        let o = g.add_outlet("o");
        let id = g.attach(o, ApplianceKind::SpaceHeater, Schedule::BuildingLights);
        let app = g.appliance(id);
        // Weekday noon: on, at its low on-impedance. 3 am: off, near-open.
        let noon = crate::time::Time::from_hours(12);
        let night = crate::time::Time::from_hours(3);
        assert!(app.schedule.is_on(noon));
        assert!(!app.schedule.is_on(night));
        assert!(app.profile().impedance_on_ohms < 10.0);
        assert!(app.profile().impedance_off_ohms > 1e4);
    }
}
