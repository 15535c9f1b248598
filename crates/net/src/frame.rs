//! The network frame: the message currency of the whole simulation.

use crate::payload::IpPacket;

/// A source route: the output port to take at each successive switch.
///
/// DIABLO simplifies packet routing to source routing (§3.3, "Use simplified
/// source routing"): WSC topologies change rarely, flow tables are large
/// enough that lookups take constant time, and several WSC switch proposals
/// use source routing natively. Routes are computed once per (src, dst) pair
/// by the [topology](crate::topology) and stamped on each frame.
///
/// The ports live inline (no heap allocation per frame), so a route is
/// `Copy` and at most [`Route::MAX_HOPS`] switches long. Slots past `len`
/// stay zero, which keeps the derived equality exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Route {
    ports: [u16; Route::MAX_HOPS],
    len: u8,
}

impl Route {
    /// Longest representable route. The longest path either fabric emits is
    /// five switches (rack → array → datacenter → array → rack on the tree,
    /// edge → aggregation → core → aggregation → edge on the fat-tree).
    pub const MAX_HOPS: usize = 6;

    /// An empty route (same-node delivery; never traverses a switch).
    pub const fn empty() -> Self {
        Route { ports: [0; Route::MAX_HOPS], len: 0 }
    }

    /// Creates a route from the output ports at each hop.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`Route::MAX_HOPS`] ports.
    pub fn new(ports: Vec<u16>) -> Self {
        Self::from_ports(&ports)
    }

    /// [`Route::new`] over a borrowed port list, for the topology's
    /// per-frame route computation.
    pub(crate) fn from_ports(ports: &[u16]) -> Self {
        assert!(
            ports.len() <= Self::MAX_HOPS,
            "route of {} hops exceeds the {}-hop inline limit (Route::MAX_HOPS)",
            ports.len(),
            Self::MAX_HOPS
        );
        let mut r = Route::empty();
        r.ports[..ports.len()].copy_from_slice(ports);
        r.len = ports.len() as u8;
        r
    }

    /// Output port at switch hop `hop`, if within the route.
    pub fn port_at(&self, hop: u8) -> Option<u16> {
        self.ports().get(hop as usize).copied()
    }

    /// Number of switch hops.
    pub fn hops(&self) -> usize {
        self.len as usize
    }

    /// Raw port list.
    pub fn ports(&self) -> &[u16] {
        &self.ports[..self.len as usize]
    }
}

impl From<Vec<u16>> for Route {
    fn from(v: Vec<u16>) -> Self {
        Route::new(v)
    }
}

/// An Ethernet-level frame in flight: an IP packet plus its source route and
/// current hop index.
///
/// # Examples
///
/// ```
/// use diablo_net::frame::{Frame, Route};
/// use diablo_net::payload::{AppMessage, IpPacket, UdpDatagram};
/// use diablo_net::addr::NodeAddr;
/// use diablo_engine::time::SimTime;
///
/// let dgram = UdpDatagram { src_port: 1, dst_port: 2,
///     msg: AppMessage::new(0, 1, 100, SimTime::ZERO) };
/// let frame = Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), dgram),
///     Route::new(vec![3]));
/// assert_eq!(frame.wire_bytes(), 166);
/// assert_eq!(frame.route.port_at(0), Some(3));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The carried IP packet.
    pub packet: IpPacket,
    /// Pre-computed source route.
    pub route: Route,
    /// Index of the next switch hop (incremented by each switch).
    pub hop: u8,
}

impl Frame {
    /// Creates a frame at hop zero.
    pub fn new(packet: IpPacket, route: Route) -> Self {
        Frame { packet, route, hop: 0 }
    }

    /// On-wire bytes (including Ethernet overhead and minimum frame size).
    pub fn wire_bytes(&self) -> u32 {
        self.packet.wire_bytes()
    }
}

use diablo_engine::snap::{Snap, SnapError, SnapReader, SnapWriter};

// Encoded exactly as the `Vec<u16>` it used to be (length-prefixed port
// list), so snapshot bytes are unchanged.
impl Snap for Route {
    fn save(&self, w: &mut SnapWriter) {
        w.put_len(self.hops());
        for p in self.ports() {
            p.save(w);
        }
    }
    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.take_len()?;
        if n > Route::MAX_HOPS {
            return Err(SnapError::Malformed(format!(
                "route of {n} hops exceeds the {}-hop limit",
                Route::MAX_HOPS
            )));
        }
        let mut route = Route::empty();
        for p in &mut route.ports[..n] {
            *p = Snap::load(r)?;
        }
        route.len = n as u8;
        Ok(route)
    }
}

diablo_engine::impl_snap_struct!(Frame { packet, route, hop });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NodeAddr;
    use crate::payload::{AppMessage, UdpDatagram};
    use diablo_engine::time::SimTime;

    #[test]
    fn route_navigation() {
        let r = Route::new(vec![7, 1, 4]);
        assert_eq!(r.hops(), 3);
        assert_eq!(r.port_at(0), Some(7));
        assert_eq!(r.port_at(2), Some(4));
        assert_eq!(r.port_at(3), None);
        assert_eq!(Route::empty().hops(), 0);
        assert_eq!(Route::from(vec![1u16]).ports(), &[1]);
    }

    /// Every property a `Vec<u16>`-backed route had, on the inline one.
    fn assert_round_trips(route: Route) {
        let ports = route.ports().to_vec();
        assert!(ports.len() <= Route::MAX_HOPS);
        assert_eq!(route.hops(), ports.len());
        for (hop, &port) in ports.iter().enumerate() {
            assert_eq!(route.port_at(hop as u8), Some(port));
        }
        assert_eq!(route.port_at(ports.len() as u8), None);
        assert_eq!(Route::new(ports.clone()), route);
        assert_eq!(Route::from(ports.clone()), route);

        // Snapshot bytes are those of the port list as a `Vec<u16>`.
        let mut as_route = SnapWriter::new();
        route.save(&mut as_route);
        let mut as_vec = SnapWriter::new();
        ports.save(&mut as_vec);
        let bytes = as_route.into_bytes();
        assert_eq!(bytes, as_vec.into_bytes());
        let mut r = SnapReader::new(&bytes);
        assert_eq!(Route::load(&mut r).unwrap(), route);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_topology_route_round_trips() {
        use crate::topology::{FatTreeConfig, Topology, TopologyConfig};
        let fabrics = [
            // The paper's 1,984-server tree: 1-, 3- and 5-hop routes.
            Topology::new(TopologyConfig::memcached_paper(64)).unwrap(),
            Topology::fat_tree(FatTreeConfig::new(4)).unwrap(),
            Topology::fat_tree(FatTreeConfig::new(8)).unwrap(),
        ];
        for t in &fabrics {
            let n = t.nodes() as u32;
            let mut longest = 0;
            // Every destination, from one source per rack position and
            // array (stride 37 is coprime to the 31-server racks).
            for s in (0..n).step_by(if n > 200 { 37 } else { 1 }) {
                for d in 0..n {
                    let route = t.route(NodeAddr(s), NodeAddr(d));
                    longest = longest.max(route.hops());
                    assert_round_trips(route);
                }
            }
            assert_eq!(longest, 5, "cross-array routes are the longest either fabric emits");
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 6-hop inline limit")]
    fn over_long_route_is_rejected() {
        let _ = Route::new(vec![1; Route::MAX_HOPS + 1]);
    }

    #[test]
    fn over_long_route_in_a_snapshot_is_an_error() {
        let mut w = SnapWriter::new();
        vec![1u16; Route::MAX_HOPS + 1].save(&mut w);
        let bytes = w.into_bytes();
        let err = Route::load(&mut SnapReader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn frame_starts_at_hop_zero() {
        let dgram =
            UdpDatagram { src_port: 1, dst_port: 2, msg: AppMessage::new(0, 1, 10, SimTime::ZERO) };
        let f = Frame::new(IpPacket::udp(NodeAddr(0), NodeAddr(1), dgram), Route::empty());
        assert_eq!(f.hop, 0);
    }
}
