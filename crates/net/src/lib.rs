//! # diablo-net — the simulated datacenter network substrate
//!
//! Wire-level vocabulary (frames, IP/TCP/UDP payloads), link physics,
//! the abstract virtual-output-queue packet switch model, and the WSC
//! array topology of the DIABLO paper (Figure 1): racks of servers under
//! Top-of-Rack switches, aggregated by array switches, joined by a
//! datacenter switch.
//!
//! Switch models separate *functional* behaviour (routing) from *timing*
//! (latency, bandwidth, buffering) exactly as DIABLO's FAME models do, and
//! every parameter is runtime-configurable — no "re-synthesis" needed to
//! explore the design space.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod frame;
pub mod link;
pub mod payload;
pub mod switch;
pub mod topology;

pub use addr::{NodeAddr, SockAddr};
pub use frame::{Frame, Route};
pub use link::{LinkParams, PortPeer, TxPort};
pub use payload::{AppMessage, IpPacket, TcpFlags, TcpSegment, Transport, UdpDatagram};
pub use switch::{BufferConfig, ForwardingMode, PacketSwitch, RoutingMode, SwitchConfig};
pub use topology::{HopClass, Topology, TopologyConfig};
