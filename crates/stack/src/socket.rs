//! Sockets, readiness masks and the epoll registry.
//!
//! One simulated node has a single shared descriptor table (the modeled
//! guests are threads of one application process, matching how memcached
//! and the incast benchmark actually run).

use crate::cpu::LiveTimer;
use crate::process::Tid;
use crate::tcp::TcpConn;
use diablo_net::addr::SockAddr;
use diablo_net::payload::AppMessage;
use std::collections::VecDeque;

/// Readiness interest/event bits for epoll and blocking waits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask {
    /// Readable (data, EOF, or a pending accept).
    pub readable: bool,
    /// Writable (send-buffer space).
    pub writable: bool,
}

impl EventMask {
    /// Read-only interest.
    pub const READ: EventMask = EventMask { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: EventMask = EventMask { readable: false, writable: true };
    /// Read+write interest.
    pub const BOTH: EventMask = EventMask { readable: true, writable: true };

    /// `true` when no bits are set.
    pub fn is_empty(self) -> bool {
        !self.readable && !self.writable
    }

    /// Intersection of interest and readiness.
    pub fn intersect(self, other: EventMask) -> EventMask {
        EventMask {
            readable: self.readable && other.readable,
            writable: self.writable && other.writable,
        }
    }
}

/// Index into the kernel's socket table (also the public `Fd` value).
pub(crate) type SockId = u32;

/// What kind of endpoint a socket slot holds.
#[derive(Debug, Default)]
pub(crate) enum SocketKind {
    /// Created but neither bound, listening, nor connected.
    RawTcp {
        /// Bound local port, if any.
        port: Option<u16>,
    },
    /// Passive listener.
    TcpListen {
        /// Listening port.
        port: u16,
        /// Accept-queue bound.
        backlog: u32,
        /// Fully established, not-yet-accepted connections.
        queue: VecDeque<SockId>,
        /// Connections still completing their handshake.
        embryos: u32,
    },
    /// A connection endpoint (client or accepted).
    Tcp {
        /// Protocol engine.
        conn: Box<TcpConn>,
        /// Its retransmission timer (`K_TCP_RTO`).
        rto: LiveTimer,
        /// Its delayed-ACK timer (`K_TCP_DELACK`).
        delack: LiveTimer,
        /// Not yet handed to `accept`.
        embryo: bool,
        /// Owning listener (embryo/queued sockets only).
        listener: Option<SockId>,
        /// The application closed this descriptor.
        app_closed: bool,
    },
    /// Datagram endpoint.
    Udp {
        /// Bound port (0 = unbound).
        port: u16,
        /// Received datagrams.
        rx: VecDeque<(SockAddr, AppMessage)>,
        /// Bytes currently buffered (bounded by the kernel's
        /// `UDP_RCVBUF`).
        rx_bytes: u64,
    },
    /// An epoll instance.
    Epoll {
        /// Watched `(socket, interest)` pairs.
        watched: Vec<(SockId, EventMask)>,
    },
    /// Slot free for reuse.
    #[default]
    Free,
}

impl SocketKind {
    /// A connection socket for `conn`: `listener`'s embryo, or a client's.
    pub(crate) fn tcp(conn: TcpConn, listener: Option<SockId>) -> Self {
        let (rto, delack, embryo) =
            (LiveTimer::default(), LiveTimer::default(), listener.is_some());
        SocketKind::Tcp { conn: Box::new(conn), rto, delack, embryo, listener, app_closed: false }
    }
}

/// One descriptor-table slot.
#[derive(Debug, Default)]
pub(crate) struct Socket {
    pub kind: SocketKind,
    pub nonblocking: bool,
    /// Threads blocked reading/accepting on this socket.
    pub wait_readers: Vec<Tid>,
    /// Threads blocked writing/connecting on this socket.
    pub wait_writers: Vec<Tid>,
    /// Epoll instances watching this socket.
    pub watchers: Vec<SockId>,
}

diablo_engine::impl_snap_struct!(EventMask { readable, writable });

diablo_engine::impl_snap_enum!(SocketKind {
    0 => RawTcp { port },
    1 => TcpListen { port, backlog, queue, embryos },
    2 => Tcp { conn, rto, delack, embryo, listener, app_closed },
    3 => Udp { port, rx, rx_bytes },
    4 => Epoll { watched },
    5 => Free,
});

diablo_engine::impl_snap_struct!(Socket {
    kind,
    nonblocking,
    wait_readers,
    wait_writers,
    watchers
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_mask_algebra() {
        assert!(EventMask::default().is_empty());
        assert!(!EventMask::READ.is_empty());
        assert_eq!(EventMask::BOTH.intersect(EventMask::READ), EventMask::READ);
        assert_eq!(EventMask::WRITE.intersect(EventMask::READ), EventMask::default());
    }
}
