//! Wire payloads: application messages, TCP segments, UDP datagrams and IP
//! packets.
//!
//! Like DIABLO, the simulator moves *every byte* of every packet through the
//! switch hierarchy in the timing domain, but payload *contents* are carried
//! as compact structured records instead of raw buffers: an
//! [`AppMessage`] holds the fields guest applications actually interpret
//! (operation kind, identifiers, logical length, timestamps), while all
//! timing math uses exact on-wire byte counts.

use crate::addr::NodeAddr;
use diablo_engine::time::SimTime;

/// Ethernet per-frame overhead in bytes that occupies the wire but not the
/// payload: preamble (8) + header (14) + FCS (4) + inter-frame gap (12).
pub const ETHERNET_OVERHEAD: u32 = 38;
/// IPv4 header bytes.
pub const IP_HEADER: u32 = 20;
/// TCP header bytes (no options).
pub const TCP_HEADER: u32 = 20;
/// UDP header bytes.
pub const UDP_HEADER: u32 = 8;
/// Conventional Ethernet MTU (IP packet bytes).
pub const MTU: u32 = 1500;
/// Maximum TCP payload per segment at the conventional MTU.
pub const TCP_MSS: u32 = MTU - IP_HEADER - TCP_HEADER;
/// Minimum on-wire frame size (64 bytes + preamble + IFG).
pub const MIN_WIRE_FRAME: u32 = 84;

/// Computes the on-wire byte count of a frame carrying `ip_bytes` of IP
/// packet, honouring the Ethernet minimum frame size.
///
/// # Examples
///
/// ```
/// use diablo_net::payload::{wire_bytes, MIN_WIRE_FRAME};
/// assert_eq!(wire_bytes(1500), 1538);
/// assert_eq!(wire_bytes(1), MIN_WIRE_FRAME);
/// ```
pub fn wire_bytes(ip_bytes: u32) -> u32 {
    (ip_bytes + ETHERNET_OVERHEAD).max(MIN_WIRE_FRAME)
}

/// A compact structured application-level message.
///
/// Guest applications (memcached, incast clients...) exchange these through
/// simulated sockets; the fields are interpreted by the application layer
/// (`diablo-apps`) — the network stack only tracks the logical byte length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppMessage {
    /// Application-defined operation code.
    pub kind: u32,
    /// Application-defined identifier (request id, key id...).
    pub id: u64,
    /// First auxiliary field.
    pub arg0: u64,
    /// Second auxiliary field.
    pub arg1: u64,
    /// Logical message length in bytes (what would be on the wire).
    pub len: u32,
    /// Simulated time at which the application created this message; used
    /// for end-to-end latency measurement.
    pub created_at: SimTime,
}

impl AppMessage {
    /// Creates a message of `len` logical bytes with the given operation
    /// code and id.
    pub fn new(kind: u32, id: u64, len: u32, created_at: SimTime) -> Self {
        AppMessage { kind, id, arg0: 0, arg1: 0, len, created_at }
    }

    /// Builder-style setter for `arg0`.
    #[must_use]
    pub fn with_arg0(mut self, v: u64) -> Self {
        self.arg0 = v;
        self
    }

    /// Builder-style setter for `arg1`.
    #[must_use]
    pub fn with_arg1(mut self, v: u64) -> Self {
        self.arg1 = v;
        self
    }
}

/// TCP header flags (a deliberate subset sufficient for NewReno).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection open request.
    pub syn: bool,
    /// Acknowledgement field is valid.
    pub ack: bool,
    /// Sender has finished sending.
    pub fin: bool,
    /// Abortive reset.
    pub rst: bool,
    /// ECN-Echo: the receiver is reflecting congestion-experienced marks
    /// back to the sender (RFC 3168 / DCTCP).
    pub ece: bool,
}

impl TcpFlags {
    /// Plain data/ack segment.
    pub const ACK: TcpFlags =
        TcpFlags { syn: false, ack: true, fin: false, rst: false, ece: false };
    /// Connection request.
    pub const SYN: TcpFlags =
        TcpFlags { syn: true, ack: false, fin: false, rst: false, ece: false };
    /// Connection accept.
    pub const SYN_ACK: TcpFlags =
        TcpFlags { syn: true, ack: true, fin: false, rst: false, ece: false };
    /// Half-close.
    pub const FIN_ACK: TcpFlags =
        TcpFlags { syn: false, ack: true, fin: true, rst: false, ece: false };
    /// Abort.
    pub const RST: TcpFlags =
        TcpFlags { syn: false, ack: false, fin: false, rst: true, ece: false };
}

/// Marks the completion of an application message within a TCP byte stream:
/// the message is fully received once `end_offset` stream bytes have been
/// delivered in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamMarker {
    /// Stream offset (exclusive) at which the message completes.
    pub end_offset: u64,
    /// The message itself.
    pub msg: AppMessage,
}

/// An abstract TCP segment.
///
/// Sequence/ack numbers are absolute 64-bit stream offsets (no wraparound),
/// a standard simulator simplification that preserves all protocol dynamics.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpSegment {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// First payload byte's stream offset.
    pub seq: u64,
    /// Cumulative acknowledgement (next expected offset).
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub wnd: u32,
    /// Payload bytes carried.
    pub payload_len: u32,
    /// Application messages completing inside this segment's payload.
    pub markers: Vec<StreamMarker>,
}

impl TcpSegment {
    /// IP-packet size of this segment.
    pub fn ip_bytes(&self) -> u32 {
        IP_HEADER + TCP_HEADER + self.payload_len
    }

    /// `true` for pure control segments (no payload).
    pub fn is_control(&self) -> bool {
        self.payload_len == 0
    }

    /// Stream offset one past the last payload byte (SYN/FIN occupy one
    /// sequence number like real TCP).
    pub fn seq_end(&self) -> u64 {
        self.seq + self.payload_len as u64 + u64::from(self.flags.syn) + u64::from(self.flags.fin)
    }
}

/// An abstract UDP datagram carrying exactly one application message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// The carried message; `msg.len` is the payload length.
    pub msg: AppMessage,
}

impl UdpDatagram {
    /// IP-packet size of this datagram.
    pub fn ip_bytes(&self) -> u32 {
        IP_HEADER + UDP_HEADER + self.msg.len
    }
}

/// Transport-layer content of an IP packet.
#[derive(Debug, Clone, PartialEq)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
}

/// An abstract IP packet.
#[derive(Debug, Clone, PartialEq)]
pub struct IpPacket {
    /// Sending node.
    pub src: NodeAddr,
    /// Receiving node.
    pub dst: NodeAddr,
    /// Congestion Experienced: set by a switch whose egress queue exceeded
    /// its ECN marking threshold while this packet was enqueued.
    pub ce: bool,
    /// Transport payload.
    pub transport: Transport,
}

impl IpPacket {
    /// Creates a TCP packet.
    pub fn tcp(src: NodeAddr, dst: NodeAddr, seg: TcpSegment) -> Self {
        IpPacket { src, dst, ce: false, transport: Transport::Tcp(seg) }
    }

    /// Creates a UDP packet.
    pub fn udp(src: NodeAddr, dst: NodeAddr, dgram: UdpDatagram) -> Self {
        IpPacket { src, dst, ce: false, transport: Transport::Udp(dgram) }
    }

    /// Total IP bytes (header + transport).
    pub fn ip_bytes(&self) -> u32 {
        match &self.transport {
            Transport::Tcp(seg) => seg.ip_bytes(),
            Transport::Udp(d) => d.ip_bytes(),
        }
    }

    /// On-wire frame bytes for this packet.
    pub fn wire_bytes(&self) -> u32 {
        wire_bytes(self.ip_bytes())
    }
}

diablo_engine::impl_snap_struct!(AppMessage { kind, id, arg0, arg1, len, created_at });
diablo_engine::impl_snap_struct!(TcpFlags { syn, ack, fin, rst, ece });
diablo_engine::impl_snap_struct!(StreamMarker { end_offset, msg });
diablo_engine::impl_snap_struct!(TcpSegment {
    src_port,
    dst_port,
    seq,
    ack,
    flags,
    wnd,
    payload_len,
    markers
});
diablo_engine::impl_snap_struct!(UdpDatagram { src_port, dst_port, msg });
diablo_engine::impl_snap_struct!(IpPacket { src, dst, ce, transport });

diablo_engine::impl_snap_enum!(Transport {
    0 => Tcp(seg),
    1 => Udp(datagram),
});

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(payload_len: u32, flags: TcpFlags) -> TcpSegment {
        TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 100,
            ack: 50,
            flags,
            wnd: 65535,
            payload_len,
            markers: Vec::new(),
        }
    }

    #[test]
    fn wire_bytes_has_floor_and_overhead() {
        assert_eq!(wire_bytes(46), 84);
        assert_eq!(wire_bytes(47), 85);
        assert_eq!(wire_bytes(0), MIN_WIRE_FRAME);
        assert_eq!(wire_bytes(MTU), 1538);
    }

    #[test]
    fn tcp_seq_end_counts_syn_fin() {
        assert_eq!(segment(0, TcpFlags::SYN).seq_end(), 101);
        assert_eq!(segment(0, TcpFlags::ACK).seq_end(), 100);
        assert_eq!(segment(10, TcpFlags::FIN_ACK).seq_end(), 111);
        assert!(segment(0, TcpFlags::ACK).is_control());
        assert!(!segment(1, TcpFlags::ACK).is_control());
    }

    #[test]
    fn packet_sizes() {
        let seg = segment(1000, TcpFlags::ACK);
        let p = IpPacket::tcp(NodeAddr(0), NodeAddr(1), seg);
        assert_eq!(p.ip_bytes(), 1040);
        assert_eq!(p.wire_bytes(), 1078);

        let d = UdpDatagram {
            src_port: 5,
            dst_port: 6,
            msg: AppMessage::new(1, 9, 100, SimTime::ZERO),
        };
        let p = IpPacket::udp(NodeAddr(0), NodeAddr(1), d);
        assert_eq!(p.ip_bytes(), 128);
        assert_eq!(p.wire_bytes(), 166);
    }

    #[test]
    fn app_message_builders() {
        let m = AppMessage::new(2, 7, 64, SimTime::from_nanos(5)).with_arg0(11).with_arg1(22);
        assert_eq!((m.kind, m.id, m.arg0, m.arg1, m.len), (2, 7, 11, 22, 64));
        assert_eq!(m.created_at, SimTime::from_nanos(5));
    }

    #[test]
    fn mss_is_consistent() {
        assert_eq!(TCP_MSS, 1460);
    }
}
