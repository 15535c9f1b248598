//! WSC array topology: racks of servers under ToR switches, aggregated by
//! array switches, joined by a datacenter switch (Figure 1 of the paper).
//!
//! The topology is a pure description: it numbers switches, lays out port
//! maps, and computes source routes and hop classes. Instantiating engine
//! components and wiring them up is the cluster builder's job
//! (`diablo-core`), keeping this crate free of construction policy.
//!
//! Switch indexing: ToR switches come first (one per rack), then one array
//! switch per array, then the datacenter switch (present only with more
//! than one array).
//!
//! A second fabric is available via [`Topology::fat_tree`]: a 3-tier
//! fat-tree (Clos) whose edge switches take the rack role, whose pods take
//! the array role, and whose aggregation/core tiers replace the single
//! array and datacenter switches. Fat-tree switch indexing: edges first
//! (`k·k/2` of them, doubling as ToR/rack indices), then aggregation
//! switches (`k/2` per pod, pod-major), then `(k/2)²` cores.
//!
//! Port maps:
//! * ToR of rack `r`: ports `0..servers_per_rack` face servers; port
//!   `servers_per_rack` is the uplink to the array switch (the paper's
//!   memcached topology uses exactly this 31-servers-plus-uplink layout,
//!   §4.2).
//! * Array switch of array `a`: port `i` faces the `i`-th rack of the
//!   array; port `racks_per_array` is the uplink to the datacenter switch.
//! * Datacenter switch: port `a` faces array `a`.

use crate::addr::NodeAddr;
use crate::frame::Route;
use core::fmt;

/// Shape of a simulated WSC array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Number of racks.
    pub racks: usize,
    /// Servers per rack (31 in the paper's memcached experiments).
    pub servers_per_rack: usize,
    /// Racks aggregated under one array switch (16 in the paper).
    pub racks_per_array: usize,
}

impl TopologyConfig {
    /// The paper's §4.2 memcached topology at a given scale: 31 servers per
    /// rack, 16 racks per array.
    pub fn memcached_paper(racks: usize) -> Self {
        TopologyConfig { racks, servers_per_rack: 31, racks_per_array: 16 }
    }
}

/// Shape of a 3-tier fat-tree (Clos) fabric.
///
/// A `k`-ary fat-tree has `k` pods. Each pod holds `k/2` edge switches and
/// `k/2` aggregation switches; `(k/2)²` core switches join the pods. Every
/// edge switch serves `hosts_per_edge` hosts and has `k/2` uplinks — one to
/// each aggregation switch in its pod — so `hosts_per_edge = k/2` gives the
/// canonical 1:1 fat-tree and larger values model oversubscribed edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeConfig {
    /// Fat-tree arity (must be even and at least 2).
    pub k: usize,
    /// Hosts attached to each edge switch (`k/2` for full bisection).
    pub hosts_per_edge: usize,
}

impl FatTreeConfig {
    /// The canonical non-oversubscribed `k`-ary fat-tree
    /// (`hosts_per_edge = k/2`).
    pub fn new(k: usize) -> Self {
        FatTreeConfig { k, hosts_per_edge: k / 2 }
    }

    /// The hierarchical "view" of this fabric: edge switches play the role
    /// of racks, a pod is an array, and the core tier replaces the
    /// datacenter switch. Partition planning and metrics naming reuse the
    /// rack/array machinery through this mapping.
    pub fn view(&self) -> TopologyConfig {
        TopologyConfig {
            racks: self.k * (self.k / 2),
            servers_per_rack: self.hosts_per_edge,
            racks_per_array: self.k / 2,
        }
    }
}

/// Errors from invalid topology configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// A structural parameter was zero.
    ZeroParameter(&'static str),
    /// A fat-tree parameter was structurally invalid.
    InvalidFatTree(&'static str),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::ZeroParameter(p) => write!(f, "topology parameter {p} must be nonzero"),
            TopologyError::InvalidFatTree(m) => write!(f, "invalid fat-tree: {m}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Which level of the hierarchy a switch sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchLevel {
    /// Top-of-rack switch for the given rack.
    Tor {
        /// Rack index.
        rack: usize,
    },
    /// Array (aggregation) switch for the given array.
    Array {
        /// Array index.
        array: usize,
    },
    /// The datacenter switch.
    Datacenter,
    /// A fat-tree aggregation switch.
    Aggregation {
        /// Pod the switch belongs to.
        pod: usize,
        /// Global aggregation-switch index (unique across pods).
        index: usize,
    },
    /// A fat-tree core switch.
    Core {
        /// Global core-switch index.
        index: usize,
    },
}

/// What a switch port is wired to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// A server.
    Node(NodeAddr),
    /// Another switch's port.
    Switch {
        /// Peer switch index.
        index: usize,
        /// Peer's port number.
        port: u16,
    },
    /// Nothing (unwired).
    Unwired,
}

/// Number of distinct switch levels a request crosses; the classification
/// used by Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HopClass {
    /// Same rack: through the ToR only.
    Local,
    /// Same array: ToR → array switch → ToR.
    OneHop,
    /// Cross-array: ToR → array → datacenter → array → ToR.
    TwoHop,
}

impl fmt::Display for HopClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HopClass::Local => write!(f, "local"),
            HopClass::OneHop => write!(f, "1-hop"),
            HopClass::TwoHop => write!(f, "2-hop"),
        }
    }
}

/// A validated WSC array topology. See the module docs for the numbering
/// scheme.
///
/// # Examples
///
/// ```
/// use diablo_net::topology::{Topology, TopologyConfig};
/// use diablo_net::addr::NodeAddr;
///
/// let topo = Topology::new(TopologyConfig::memcached_paper(64))?;
/// assert_eq!(topo.nodes(), 64 * 31);
/// assert_eq!(topo.arrays(), 4);
/// // Server 0 (rack 0) to server 33 (rack 1): same array, three switches.
/// let route = topo.route(NodeAddr(0), NodeAddr(33));
/// assert_eq!(route.hops(), 3);
/// # Ok::<(), diablo_net::topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    cfg: TopologyConfig,
    fabric: Fabric,
}

/// Which physical fabric realises the hierarchical view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fabric {
    /// The paper's rack/array/datacenter tree.
    Tree,
    /// A 3-tier fat-tree; the view's racks are its edge switches.
    FatTree {
        /// Fat-tree arity.
        k: usize,
    },
}

impl Topology {
    /// Validates and wraps a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ZeroParameter`] if any structural parameter
    /// is zero.
    pub fn new(cfg: TopologyConfig) -> Result<Self, TopologyError> {
        if cfg.racks == 0 {
            return Err(TopologyError::ZeroParameter("racks"));
        }
        if cfg.servers_per_rack == 0 {
            return Err(TopologyError::ZeroParameter("servers_per_rack"));
        }
        if cfg.racks_per_array == 0 {
            return Err(TopologyError::ZeroParameter("racks_per_array"));
        }
        Ok(Topology { cfg, fabric: Fabric::Tree })
    }

    /// Validates a fat-tree shape and builds its topology. Edge switches
    /// take the rack role (and the `Tor` switch level), so node addressing,
    /// hop classes and partition planning all reuse the hierarchical view.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidFatTree`] when `k` is odd or below 2,
    /// or [`TopologyError::ZeroParameter`] when `hosts_per_edge` is zero.
    pub fn fat_tree(ft: FatTreeConfig) -> Result<Self, TopologyError> {
        if ft.k < 2 {
            return Err(TopologyError::InvalidFatTree("k must be at least 2"));
        }
        if !ft.k.is_multiple_of(2) {
            return Err(TopologyError::InvalidFatTree("k must be even"));
        }
        if ft.hosts_per_edge == 0 {
            return Err(TopologyError::ZeroParameter("hosts_per_edge"));
        }
        Ok(Topology { cfg: ft.view(), fabric: Fabric::FatTree { k: ft.k } })
    }

    /// `(k, hosts_per_edge)` when this topology is a fat-tree.
    pub fn fat_tree_params(&self) -> Option<(usize, usize)> {
        match self.fabric {
            Fabric::Tree => None,
            Fabric::FatTree { k } => Some((k, self.cfg.servers_per_rack)),
        }
    }

    /// `true` for fat-tree fabrics.
    pub fn is_fat_tree(&self) -> bool {
        matches!(self.fabric, Fabric::FatTree { .. })
    }

    /// The underlying configuration.
    pub fn config(&self) -> TopologyConfig {
        self.cfg
    }

    /// Total server count.
    pub fn nodes(&self) -> usize {
        self.cfg.racks * self.cfg.servers_per_rack
    }

    /// Number of arrays (ceiling division).
    pub fn arrays(&self) -> usize {
        self.cfg.racks.div_ceil(self.cfg.racks_per_array)
    }

    /// `true` when a datacenter switch exists (more than one array in a
    /// tree fabric; fat-trees use a core tier instead).
    pub fn has_datacenter_switch(&self) -> bool {
        matches!(self.fabric, Fabric::Tree) && self.arrays() > 1
    }

    /// Total switch count (ToRs + array switches + optional DC switch for
    /// the tree; edge + aggregation + core tiers for the fat-tree).
    pub fn switch_count(&self) -> usize {
        match self.fabric {
            Fabric::Tree => {
                self.cfg.racks + self.arrays() + usize::from(self.has_datacenter_switch())
            }
            Fabric::FatTree { k } => 2 * self.cfg.racks + (k / 2) * (k / 2),
        }
    }

    /// Switch index of rack `r`'s ToR.
    pub fn tor_index(&self, rack: usize) -> usize {
        debug_assert!(rack < self.cfg.racks);
        rack
    }

    /// Switch index of array `a`'s aggregation switch (tree fabrics only).
    ///
    /// # Panics
    ///
    /// Panics on fat-tree fabrics, where a pod has `k/2` aggregation
    /// switches rather than one (use [`Topology::aggregation_index`]).
    pub fn array_index(&self, array: usize) -> usize {
        assert!(!self.is_fat_tree(), "fat-tree pods have no single array switch");
        debug_assert!(array < self.arrays());
        self.cfg.racks + array
    }

    /// Switch index of the datacenter switch.
    ///
    /// # Panics
    ///
    /// Panics if the topology has a single array (no DC switch) or is a
    /// fat-tree (core tier instead).
    pub fn datacenter_index(&self) -> usize {
        assert!(self.has_datacenter_switch(), "this topology has no datacenter switch");
        self.cfg.racks + self.arrays()
    }

    /// Switch index of fat-tree aggregation switch `a` of `pod`
    /// (`a < k/2`).
    ///
    /// # Panics
    ///
    /// Panics on tree fabrics.
    pub fn aggregation_index(&self, pod: usize, a: usize) -> usize {
        match self.fabric {
            Fabric::Tree => panic!("tree fabrics have no aggregation tier"),
            Fabric::FatTree { k } => {
                debug_assert!(pod < k && a < k / 2);
                self.cfg.racks + pod * (k / 2) + a
            }
        }
    }

    /// Switch index of fat-tree core switch `j` (`j < (k/2)²`).
    ///
    /// # Panics
    ///
    /// Panics on tree fabrics.
    pub fn core_index(&self, j: usize) -> usize {
        match self.fabric {
            Fabric::Tree => panic!("tree fabrics have no core tier"),
            Fabric::FatTree { k } => {
                debug_assert!(j < (k / 2) * (k / 2));
                2 * self.cfg.racks + j
            }
        }
    }

    /// The level of switch `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn switch_level(&self, index: usize) -> SwitchLevel {
        match self.fabric {
            Fabric::Tree => {
                if index < self.cfg.racks {
                    SwitchLevel::Tor { rack: index }
                } else if index < self.cfg.racks + self.arrays() {
                    SwitchLevel::Array { array: index - self.cfg.racks }
                } else if self.has_datacenter_switch() && index == self.datacenter_index() {
                    SwitchLevel::Datacenter
                } else {
                    panic!("switch index {index} out of range");
                }
            }
            Fabric::FatTree { k } => {
                let edges = self.cfg.racks;
                let half = k / 2;
                if index < edges {
                    SwitchLevel::Tor { rack: index }
                } else if index < 2 * edges {
                    let agg = index - edges;
                    SwitchLevel::Aggregation { pod: agg / half, index: agg }
                } else if index < 2 * edges + half * half {
                    SwitchLevel::Core { index: index - 2 * edges }
                } else {
                    panic!("switch index {index} out of range");
                }
            }
        }
    }

    /// Port count of switch `index`.
    pub fn switch_ports(&self, index: usize) -> u16 {
        match self.switch_level(index) {
            SwitchLevel::Tor { .. } => match self.fabric {
                Fabric::Tree => (self.cfg.servers_per_rack + 1) as u16,
                Fabric::FatTree { k } => (self.cfg.servers_per_rack + k / 2) as u16,
            },
            SwitchLevel::Array { .. } => (self.cfg.racks_per_array + 1) as u16,
            SwitchLevel::Datacenter => self.arrays() as u16,
            SwitchLevel::Aggregation { .. } | SwitchLevel::Core { .. } => {
                let Fabric::FatTree { k } = self.fabric else { unreachable!() };
                k as u16
            }
        }
    }

    /// Rack housing `node`.
    pub fn rack_of(&self, node: NodeAddr) -> usize {
        node.index() / self.cfg.servers_per_rack
    }

    /// Position of `node` within its rack (= its ToR port).
    pub fn slot_of(&self, node: NodeAddr) -> usize {
        node.index() % self.cfg.servers_per_rack
    }

    /// Array containing `rack`.
    pub fn array_of_rack(&self, rack: usize) -> usize {
        rack / self.cfg.racks_per_array
    }

    /// Position of `rack` within its array (= its array-switch port).
    pub fn rack_slot_in_array(&self, rack: usize) -> usize {
        rack % self.cfg.racks_per_array
    }

    /// Number of racks actually present in `array` (the last array may be
    /// partial).
    pub fn racks_in_array(&self, array: usize) -> usize {
        let start = array * self.cfg.racks_per_array;
        self.cfg.racks.saturating_sub(start).min(self.cfg.racks_per_array)
    }

    /// The `(switch index, port)` a node is attached to.
    pub fn node_attachment(&self, node: NodeAddr) -> (usize, u16) {
        (self.tor_index(self.rack_of(node)), self.slot_of(node) as u16)
    }

    /// The ToR uplink port number (identical on every ToR). On fat-trees
    /// this is the *first* of the edge switch's `k/2` uplinks.
    pub fn tor_uplink_port(&self) -> u16 {
        self.cfg.servers_per_rack as u16
    }

    /// The array-switch uplink port number (identical on every array
    /// switch). On fat-trees this is the first of an aggregation switch's
    /// `k/2` core-facing uplinks.
    pub fn array_uplink_port(&self) -> u16 {
        self.cfg.racks_per_array as u16
    }

    /// What switch `index`'s port `port` is wired to.
    pub fn peer_of(&self, index: usize, port: u16) -> Endpoint {
        if self.is_fat_tree() {
            return self.fat_tree_peer_of(index, port);
        }
        match self.switch_level(index) {
            SwitchLevel::Tor { rack } => {
                let spr = self.cfg.servers_per_rack;
                if (port as usize) < spr {
                    Endpoint::Node(NodeAddr((rack * spr + port as usize) as u32))
                } else if port == self.tor_uplink_port() {
                    let array = self.array_of_rack(rack);
                    Endpoint::Switch {
                        index: self.array_index(array),
                        port: self.rack_slot_in_array(rack) as u16,
                    }
                } else {
                    Endpoint::Unwired
                }
            }
            SwitchLevel::Array { array } => {
                if (port as usize) < self.racks_in_array(array) {
                    let rack = array * self.cfg.racks_per_array + port as usize;
                    Endpoint::Switch { index: self.tor_index(rack), port: self.tor_uplink_port() }
                } else if port == self.array_uplink_port() && self.has_datacenter_switch() {
                    Endpoint::Switch { index: self.datacenter_index(), port: array as u16 }
                } else {
                    Endpoint::Unwired
                }
            }
            SwitchLevel::Datacenter => {
                if (port as usize) < self.arrays() {
                    Endpoint::Switch {
                        index: self.array_index(port as usize),
                        port: self.array_uplink_port(),
                    }
                } else {
                    Endpoint::Unwired
                }
            }
            SwitchLevel::Aggregation { .. } | SwitchLevel::Core { .. } => unreachable!(),
        }
    }

    /// Fat-tree wiring: edge `e = pod·(k/2) + ep` uses ports
    /// `0..hosts_per_edge` for hosts and `hosts_per_edge + a` for
    /// aggregation switch `a` of its pod (at agg port `ep`); aggregation
    /// switch `a` of pod `p` uses ports `0..k/2` down to its pod's edges
    /// and `k/2 + i` up to core `a·(k/2) + i` (at core port `p`); core `j`
    /// uses port `p` for pod `p`.
    fn fat_tree_peer_of(&self, index: usize, port: u16) -> Endpoint {
        let Fabric::FatTree { k } = self.fabric else { unreachable!() };
        let half = k / 2;
        let hpe = self.cfg.servers_per_rack;
        let port = port as usize;
        match self.switch_level(index) {
            SwitchLevel::Tor { rack: edge } => {
                let ep = edge % half;
                if port < hpe {
                    Endpoint::Node(NodeAddr((edge * hpe + port) as u32))
                } else if port < hpe + half {
                    let pod = edge / half;
                    Endpoint::Switch {
                        index: self.aggregation_index(pod, port - hpe),
                        port: ep as u16,
                    }
                } else {
                    Endpoint::Unwired
                }
            }
            SwitchLevel::Aggregation { pod, index: agg } => {
                let a = agg % half;
                if port < half {
                    Endpoint::Switch {
                        index: self.tor_index(pod * half + port),
                        port: (hpe + a) as u16,
                    }
                } else if port < k {
                    Endpoint::Switch {
                        index: self.core_index(a * half + (port - half)),
                        port: pod as u16,
                    }
                } else {
                    Endpoint::Unwired
                }
            }
            SwitchLevel::Core { index: j } => {
                if port < k {
                    Endpoint::Switch {
                        index: self.aggregation_index(port, j / half),
                        port: (half + j % half) as u16,
                    }
                } else {
                    Endpoint::Unwired
                }
            }
            _ => unreachable!(),
        }
    }

    /// Source route from `src` to `dst` (the output port at each switch).
    ///
    /// An empty route means loopback (same node); the network stack must
    /// not emit such frames onto the wire.
    ///
    /// # Panics
    ///
    /// Panics if either node index is out of range.
    pub fn route(&self, src: NodeAddr, dst: NodeAddr) -> Route {
        assert!(src.index() < self.nodes(), "src {src} out of range");
        assert!(dst.index() < self.nodes(), "dst {dst} out of range");
        if src == dst {
            return Route::empty();
        }
        let sr = self.rack_of(src);
        let dr = self.rack_of(dst);
        let dst_port = self.slot_of(dst) as u16;
        if sr == dr {
            return Route::from_ports(&[dst_port]);
        }
        let sa = self.array_of_rack(sr);
        let da = self.array_of_rack(dr);
        let up = self.tor_uplink_port();
        let dst_rack_port = self.rack_slot_in_array(dr) as u16;
        // On fat-trees the same port vector traces the baseline path through
        // the *first* uplink at every choice point (edge → agg 0 of its pod,
        // agg 0 → core 0, core port = destination pod): switches running
        // flow-consistent ECMP compute the actual output port per hop and
        // ignore the frame's route, so this path exists for wiring
        // validation and source-routed debugging only.
        if sa == da {
            return Route::from_ports(&[up, dst_rack_port, dst_port]);
        }
        Route::from_ports(&[up, self.array_uplink_port(), da as u16, dst_rack_port, dst_port])
    }

    /// Hop classification of a `src`→`dst` request (Figure 10's categories).
    pub fn hop_class(&self, src: NodeAddr, dst: NodeAddr) -> HopClass {
        let sr = self.rack_of(src);
        let dr = self.rack_of(dst);
        if sr == dr {
            HopClass::Local
        } else if self.array_of_rack(sr) == self.array_of_rack(dr) {
            HopClass::OneHop
        } else {
            HopClass::TwoHop
        }
    }

    /// Bandwidth over-subscription ratio at the ToR/edge uplink tier
    /// (`servers_per_rack : 1` with a single uplink, 31:1 in the paper;
    /// `hosts_per_edge : k/2` on fat-trees).
    pub fn tor_oversubscription(&self) -> f64 {
        match self.fabric {
            Fabric::Tree => self.cfg.servers_per_rack as f64,
            Fabric::FatTree { k } => self.cfg.servers_per_rack as f64 / (k / 2) as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_topo() -> Topology {
        Topology::new(TopologyConfig::memcached_paper(64)).unwrap()
    }

    #[test]
    fn counts_match_paper_setup() {
        let t = paper_topo();
        assert_eq!(t.nodes(), 1984);
        assert_eq!(t.arrays(), 4);
        assert!(t.has_datacenter_switch());
        assert_eq!(t.switch_count(), 64 + 4 + 1);
        assert_eq!(t.switch_ports(t.tor_index(0)), 32);
        assert_eq!(t.switch_ports(t.array_index(0)), 17);
        assert_eq!(t.switch_ports(t.datacenter_index()), 4);
        assert_eq!(t.tor_oversubscription(), 31.0);
    }

    #[test]
    fn single_array_has_no_dc_switch() {
        let t = Topology::new(TopologyConfig::memcached_paper(16)).unwrap();
        assert!(!t.has_datacenter_switch());
        assert_eq!(t.switch_count(), 17);
    }

    #[test]
    fn zero_parameters_rejected() {
        for cfg in [
            TopologyConfig { racks: 0, servers_per_rack: 1, racks_per_array: 1 },
            TopologyConfig { racks: 1, servers_per_rack: 0, racks_per_array: 1 },
            TopologyConfig { racks: 1, servers_per_rack: 1, racks_per_array: 0 },
        ] {
            assert!(Topology::new(cfg).is_err());
        }
    }

    #[test]
    fn hop_classes() {
        let t = paper_topo();
        // Rack 0: nodes 0..31. Rack 1: 31..62. Array 1 starts at rack 16.
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(30)), HopClass::Local);
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(31)), HopClass::OneHop);
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(31 * 16)), HopClass::TwoHop);
    }

    #[test]
    fn route_lengths_by_class() {
        let t = paper_topo();
        assert_eq!(t.route(NodeAddr(0), NodeAddr(0)).hops(), 0);
        assert_eq!(t.route(NodeAddr(0), NodeAddr(5)).hops(), 1);
        assert_eq!(t.route(NodeAddr(0), NodeAddr(40)).hops(), 3);
        assert_eq!(t.route(NodeAddr(0), NodeAddr(1000)).hops(), 5);
    }

    /// Walks a route through the wiring map and checks it lands on `dst`.
    fn walk(t: &Topology, src: NodeAddr, dst: NodeAddr) {
        let route = t.route(src, dst);
        if route.hops() == 0 {
            assert_eq!(src, dst);
            return;
        }
        let (mut sw, _) = t.node_attachment(src);
        for (i, &port) in route.ports().iter().enumerate() {
            match t.peer_of(sw, port) {
                Endpoint::Node(n) => {
                    assert_eq!(i, route.hops() - 1, "reached a node mid-route");
                    assert_eq!(n, dst, "route {route:?} from {src} landed on {n}, wanted {dst}");
                    return;
                }
                Endpoint::Switch { index, .. } => sw = index,
                Endpoint::Unwired => panic!("route {route:?} hit an unwired port"),
            }
        }
        panic!("route {route:?} never reached a node");
    }

    #[test]
    fn all_routes_terminate_at_destination() {
        let t = Topology::new(TopologyConfig { racks: 6, servers_per_rack: 4, racks_per_array: 2 })
            .unwrap();
        for s in 0..t.nodes() as u32 {
            for d in 0..t.nodes() as u32 {
                walk(&t, NodeAddr(s), NodeAddr(d));
            }
        }
    }

    #[test]
    fn partial_last_array() {
        let t = Topology::new(TopologyConfig { racks: 5, servers_per_rack: 2, racks_per_array: 2 })
            .unwrap();
        assert_eq!(t.arrays(), 3);
        assert_eq!(t.racks_in_array(2), 1);
        for s in 0..t.nodes() as u32 {
            for d in 0..t.nodes() as u32 {
                walk(&t, NodeAddr(s), NodeAddr(d));
            }
        }
    }

    // -- fat-tree fabric ---------------------------------------------------

    fn ft4() -> Topology {
        Topology::fat_tree(FatTreeConfig::new(4)).unwrap()
    }

    #[test]
    fn fat_tree_counts() {
        let t = ft4();
        assert_eq!(t.nodes(), 16);
        assert_eq!(t.config().racks, 8);
        assert_eq!(t.arrays(), 4); // pods
        assert!(!t.has_datacenter_switch());
        assert_eq!(t.switch_count(), 8 + 8 + 4);
        assert_eq!(t.fat_tree_params(), Some((4, 2)));
        assert_eq!(t.tor_oversubscription(), 1.0);
        // Every fat-tree switch is k-port except edges with custom hosts.
        assert_eq!(t.switch_ports(0), 4);
        assert_eq!(t.switch_ports(t.aggregation_index(0, 0)), 4);
        assert_eq!(t.switch_ports(t.core_index(0)), 4);
    }

    #[test]
    fn fat_tree_oversubscribed_edges() {
        let t = Topology::fat_tree(FatTreeConfig { k: 4, hosts_per_edge: 6 }).unwrap();
        assert_eq!(t.nodes(), 48);
        assert_eq!(t.tor_oversubscription(), 3.0);
        assert_eq!(t.switch_ports(0), 8); // 6 hosts + 2 uplinks
    }

    #[test]
    fn fat_tree_invalid_shapes_rejected() {
        assert!(Topology::fat_tree(FatTreeConfig::new(0)).is_err());
        assert!(Topology::fat_tree(FatTreeConfig { k: 3, hosts_per_edge: 1 }).is_err());
        assert!(Topology::fat_tree(FatTreeConfig { k: 4, hosts_per_edge: 0 }).is_err());
    }

    #[test]
    fn fat_tree_levels_partition_the_index_space() {
        let t = ft4();
        for s in 0..t.switch_count() {
            match t.switch_level(s) {
                SwitchLevel::Tor { rack } => assert_eq!(rack, s),
                SwitchLevel::Aggregation { pod, index } => {
                    assert_eq!(t.aggregation_index(pod, index % 2), s);
                    assert_eq!(index, s - 8);
                }
                SwitchLevel::Core { index } => assert_eq!(t.core_index(index), s),
                other => panic!("unexpected level {other:?}"),
            }
        }
    }

    #[test]
    fn fat_tree_wiring_is_symmetric() {
        for t in [ft4(), Topology::fat_tree(FatTreeConfig { k: 6, hosts_per_edge: 5 }).unwrap()] {
            for s in 0..t.switch_count() {
                for p in 0..t.switch_ports(s) {
                    match t.peer_of(s, p) {
                        Endpoint::Node(n) => {
                            assert_eq!(t.node_attachment(n), (s, p), "host {n} attachment");
                        }
                        Endpoint::Switch { index, port } => {
                            assert_eq!(
                                t.peer_of(index, port),
                                Endpoint::Switch { index: s, port: p },
                                "asymmetric link {s}:{p}"
                            );
                        }
                        Endpoint::Unwired => panic!("fat-tree port {s}:{p} unwired"),
                    }
                }
            }
        }
    }

    #[test]
    fn fat_tree_baseline_routes_terminate() {
        let t = ft4();
        for s in 0..t.nodes() as u32 {
            for d in 0..t.nodes() as u32 {
                walk(&t, NodeAddr(s), NodeAddr(d));
            }
        }
    }

    #[test]
    fn fat_tree_hop_classes() {
        let t = ft4();
        // Edge 0 hosts nodes 0-1; pod 0 = edges 0-1; pod 1 starts at node 4.
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(1)), HopClass::Local);
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(2)), HopClass::OneHop);
        assert_eq!(t.hop_class(NodeAddr(0), NodeAddr(4)), HopClass::TwoHop);
    }

    #[test]
    fn attachment_and_uplinks() {
        let t = paper_topo();
        assert_eq!(t.node_attachment(NodeAddr(0)), (0, 0));
        assert_eq!(t.node_attachment(NodeAddr(32)), (1, 1));
        assert_eq!(t.tor_uplink_port(), 31);
        assert_eq!(t.array_uplink_port(), 16);
        // ToR uplink reaches the right array switch.
        assert_eq!(
            t.peer_of(t.tor_index(17), t.tor_uplink_port()),
            Endpoint::Switch { index: t.array_index(1), port: 1 }
        );
        // DC port a faces array a's uplink.
        assert_eq!(
            t.peer_of(t.datacenter_index(), 2),
            Endpoint::Switch { index: t.array_index(2), port: 16 }
        );
    }
}
