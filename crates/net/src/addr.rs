//! Endpoint addressing.
//!
//! DIABLO identifies each simulated server by its position in the array; we
//! use a flat node index plus a transport port, which matches the paper's
//! source-routed network where topology positions (not learned MAC tables)
//! determine forwarding.

use core::fmt;

/// Identifies a simulated server (one Linux instance in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeAddr(pub u32);

impl NodeAddr {
    /// Index into node tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeAddr {
    fn from(v: u32) -> Self {
        NodeAddr(v)
    }
}

/// A transport endpoint: node plus 16-bit port.
///
/// # Examples
///
/// ```
/// use diablo_net::addr::{NodeAddr, SockAddr};
/// let a = SockAddr::new(NodeAddr(3), 11211);
/// assert_eq!(a.to_string(), "n3:11211");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SockAddr {
    /// Hosting node.
    pub node: NodeAddr,
    /// Transport port.
    pub port: u16,
}

impl SockAddr {
    /// Creates a socket address.
    pub const fn new(node: NodeAddr, port: u16) -> Self {
        SockAddr { node, port }
    }
}

impl fmt::Display for SockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port)
    }
}

diablo_engine::impl_snap_struct!(NodeAddr { 0 });

diablo_engine::impl_snap_struct!(SockAddr { node, port });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_by_node_then_port() {
        let a = SockAddr::new(NodeAddr(1), 9);
        let b = SockAddr::new(NodeAddr(1), 10);
        let c = SockAddr::new(NodeAddr(2), 1);
        assert!(a < b && b < c);
    }

    #[test]
    fn display() {
        assert_eq!(NodeAddr(7).to_string(), "n7");
        assert_eq!(NodeAddr::from(7u32), NodeAddr(7));
        assert_eq!(NodeAddr(7).index(), 7);
    }
}
