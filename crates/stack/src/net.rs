//! The node's socket layer: the descriptor table, the port tables,
//! demultiplexing, readiness and the in-kernel loopback path. It never
//! touches a thread: a readiness change hands the threads it wakes back to
//! the kernel ([`Net::woken`]), a socket call leaves what it cost the
//! caller in [`Net::cost`], and what a call reaches below the socket table
//! the kernel lends it as a [`Wire`].

use crate::cpu::LiveTimer;
use crate::kernel::{Wire, K_LOOPBACK, K_TCP_DELACK, K_TCP_RTO};
use crate::process::{Errno, Fd, SysResult, Tid};
use crate::profile::KernelProfile;
use crate::socket::{EventMask, SockId, Socket, SocketKind};
use crate::tcp::{TcpConn, TcpOutput, TcpState, TcpStats};
use diablo_engine::prelude::{SimDuration, SimTime};
use diablo_net::addr::{NodeAddr, SockAddr};
use diablo_net::frame::{Frame, Route};
use diablo_net::payload::{AppMessage, IpPacket, TcpFlags, TcpSegment, Transport, UdpDatagram};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;

/// One-way latency of the in-kernel loopback path.
pub const LOOPBACK_DELAY: SimDuration = SimDuration::from_micros(5);

/// Default UDP socket receive buffer (bytes), the same in every modeled
/// kernel.
const UDP_RCVBUF: u64 = 160 * 1024;

/// A call on a descriptor that names no socket of the kind it needs.
const BAD_FD: SysResult = SysResult::Err(Errno::BadFd);

fn fold_tcp_stats(agg: &mut TcpStats, s: TcpStats) {
    agg.segs_in += s.segs_in;
    agg.segs_out += s.segs_out;
    agg.bytes_in += s.bytes_in;
    agg.bytes_out += s.bytes_out;
    agg.retransmits += s.retransmits;
    agg.fast_retransmits += s.fast_retransmits;
    agg.rtos += s.rtos;
}

/// Removes `key` from `map` if socket `sid` holds it there.
fn release<K: Hash + Eq>(map: &mut HashMap<K, SockId>, key: &K, sid: SockId) {
    if map.get(key) == Some(&sid) {
        map.remove(key);
    }
}

/// The socket layer. See the module docs.
#[derive(Default)]
pub struct Net {
    pub sockets: Vec<Socket>,
    pub free_socks: Vec<SockId>,
    pub conns: HashMap<(u16, SockAddr), SockId>,
    /// The socket that owns each bound TCP port: a bound socket, a
    /// listener, or a connection's ephemeral port.
    pub tcp_ports: HashMap<u16, SockId>,
    pub udp_ports: HashMap<u16, SockId>,
    /// The next ephemeral TCP port to try; 0 before the first, 32768.
    next_ephemeral: u16,
    loopback: VecDeque<(SimTime, Frame)>,
    /// Round-robin cursor for wake-one notification fairness.
    notify_rr: u64,
    /// TCP counters of connections that no longer exist (torn down or lost
    /// to a crash); the per-node aggregate is `tcp_agg` + live conns.
    tcp_agg: TcpStats,
    /// The threads the last call woke, in order; kept for its capacity.
    pub woken: Vec<Tid>,
    /// Instructions the last call cost its caller: a receive's copy, a
    /// send's TX processing.
    pub cost: u64,
}

diablo_engine::impl_persist_fields!(Net {
    sockets,
    free_socks,
    conns,
    tcp_ports,
    udp_ports,
    next_ephemeral,
    loopback,
    notify_rr,
    tcp_agg,
    woken: config,
    cost: config,
});

impl Net {
    /// Kernel panic: every socket, connection and loopback frame is lost;
    /// the TCP counters of the connections survive.
    pub fn crash(&mut self) {
        *self = Net { tcp_agg: self.tcp_stats(), ..Net::default() };
    }

    /// Node-wide TCP counters: dead connections plus every live one.
    pub fn tcp_stats(&self) -> TcpStats {
        let mut tcp = self.tcp_agg;
        for s in &self.sockets {
            if let SocketKind::Tcp { conn, .. } = &s.kind {
                fold_tcp_stats(&mut tcp, conn.stats());
            }
        }
        tcp
    }

    /// The earliest instant a loopback frame, a TCP retransmission or a
    /// delayed ACK is due.
    pub fn next_timer(&self) -> SimTime {
        let tcp = self.sockets.iter().map(|s| match &s.kind {
            SocketKind::Tcp { rto, delack, .. } => rto.due().min(delack.due()),
            _ => SimTime::MAX,
        });
        tcp.fold(self.loopback_due(), SimTime::min)
    }

    // ------------------------------------------------------ socket table

    pub fn alloc_socket(&mut self, kind: SocketKind) -> SockId {
        // Delay descriptor reuse (FIFO, with a floor): applications with
        // in-flight references to a just-closed fd must not observe it
        // rebound to an unrelated connection.
        if self.free_socks.len() > 512 {
            let sid = self.free_socks.remove(0);
            self.sockets[sid as usize] = Socket { kind, ..Socket::default() };
            sid
        } else {
            self.sockets.push(Socket { kind, ..Socket::default() });
            (self.sockets.len() - 1) as SockId
        }
    }

    /// Drops `sid` from every epoll interest set, like the kernel does
    /// when the last reference to a file goes away: here a socket has one
    /// descriptor, so at its close.
    fn unwatch(&mut self, sid: SockId) {
        for ep in std::mem::take(&mut self.sockets[sid as usize].watchers) {
            if let Some(SocketKind::Epoll { watched }) =
                self.sockets.get_mut(ep as usize).map(|sock| &mut sock.kind)
            {
                watched.retain(|(s, _)| *s != sid);
            }
        }
    }

    fn free_socket(&mut self, sid: SockId) {
        self.unwatch(sid);
        self.sockets[sid as usize] = Socket::default();
        self.free_socks.push(sid);
    }

    /// Connection `sid`'s engine with its RTO and delayed-ACK timers. A
    /// slot's next connection starts with none live, so a timer its last
    /// one left queued never matches.
    fn tcp(&mut self, sid: SockId) -> Option<(&mut TcpConn, [&mut LiveTimer; 2])> {
        match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::Tcp { conn, rto, delack, .. }) => Some((conn, [rto, delack])),
            _ => None,
        }
    }

    /// Gives socket `sid` the next TCP port no socket owns.
    fn ephemeral_port(&mut self, sid: SockId) -> u16 {
        for _ in 0..u16::MAX {
            let p = self.next_ephemeral.max(32768);
            self.next_ephemeral = if p == u16::MAX { 32768 } else { p + 1 };
            if let Entry::Vacant(free) = self.tcp_ports.entry(p) {
                free.insert(sid);
                return p;
            }
        }
        panic!("ephemeral ports exhausted");
    }

    /// Binds UDP socket `sid` to `port`, or, for 0, to the first port from
    /// 32768 up that no socket holds: where `bind(0)` and an unbound
    /// socket's first `sendto` land. Returns the port.
    fn bind_udp(&mut self, sid: SockId, mut port: u16) -> u16 {
        if port == 0 {
            port = 32768;
            while self.udp_ports.contains_key(&port) {
                port = port.wrapping_add(1);
            }
        }
        if let SocketKind::Udp { port: bound, .. } = &mut self.sockets[sid as usize].kind {
            *bound = port;
        }
        self.udp_ports.insert(port, sid);
        port
    }

    fn readiness(&self, sid: SockId) -> EventMask {
        match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, .. } => EventMask {
                readable: conn.readable(),
                writable: conn.writable(1) || conn.state() == TcpState::Closed,
            },
            SocketKind::TcpListen { queue, .. } => {
                EventMask { readable: !queue.is_empty(), writable: false }
            }
            SocketKind::Udp { rx, .. } => EventMask { readable: !rx.is_empty(), writable: true },
            _ => EventMask::default(),
        }
    }

    /// Readiness events of epoll instance `ep`, at most `max`; `None` if
    /// `ep` is not one.
    pub fn events(&self, ep: SockId, max: usize) -> Option<Vec<(Fd, EventMask)>> {
        let SocketKind::Epoll { watched } = &self.sockets[ep as usize].kind else { return None };
        let ready = watched
            .iter()
            .map(|&(sid, interest)| (Fd(sid), self.readiness(sid).intersect(interest)));
        // At least one event, however small `max`.
        Some(ready.filter(|(_, mask)| !mask.is_empty()).take(max.max(1)).collect())
    }

    // ---------------------------------------------------------- wakeups

    /// Hands back the blocked readers/writers and epoll waiters to wake
    /// after a readiness change on `sid`.
    ///
    /// Datagram sockets use wake-one semantics: a single datagram can only
    /// be consumed by one of the workers sharing the socket, so the kernel
    /// wakes exactly one waiter per arrival (the behaviour memcached
    /// deployments rely on to avoid a thundering herd on the shared UDP
    /// socket).
    fn notify(&mut self, sid: SockId, what: EventMask) {
        let wake_one = matches!(self.sockets[sid as usize].kind, SocketKind::Udp { .. })
            && what.readable
            && !what.writable;
        if what.readable && self.wake_readers(sid, wake_one) {
            return;
        }
        if what.writable {
            self.woken.append(&mut self.sockets[sid as usize].wait_writers);
        }
        // Rotate the starting watcher so wake-one load-balances workers.
        // (Nothing below edits `sid`'s watcher list, so it is read in place.)
        let watchers = self.sockets[sid as usize].watchers.len();
        let start = (self.notify_rr as usize) % watchers.max(1);
        self.notify_rr = self.notify_rr.wrapping_add(1);
        for i in 0..watchers {
            let ep = self.sockets[sid as usize].watchers[(start + i) % watchers];
            let interest = match &self.sockets[ep as usize].kind {
                SocketKind::Epoll { watched } => {
                    watched.iter().find(|(s, _)| *s == sid).map(|(_, m)| *m).unwrap_or_default()
                }
                _ => EventMask::default(),
            };
            if !interest.intersect(what).is_empty() && self.wake_readers(ep, wake_one) {
                return;
            }
        }
    }

    /// Hands back the threads waiting to read `sid`, or only the first if
    /// `one`; `true` if that found one.
    fn wake_readers(&mut self, sid: SockId, one: bool) -> bool {
        let waiters = &mut self.sockets[sid as usize].wait_readers;
        if one {
            let first = (!waiters.is_empty()).then(|| waiters.remove(0));
            self.woken.extend(first);
            first.is_some()
        } else {
            self.woken.append(waiters);
            false
        }
    }

    // ---------------------------------------------------------- datapath

    /// When the first loopback frame is due; `SimTime::MAX` if none is.
    pub fn loopback_due(&self) -> SimTime {
        self.loopback.front().map_or(SimTime::MAX, |&(due, _)| due)
    }

    pub fn pop_loopback(&mut self, now: SimTime) -> Option<Frame> {
        self.loopback.pop_front_if(|(due, _)| *due <= now).map(|(_, f)| f)
    }

    /// Sends an IP packet: loopback if local, the NIC otherwise.
    fn tx_packet(&mut self, pkt: IpPacket, w: &mut Wire) {
        if pkt.dst == w.cfg.addr {
            let at = w.now + LOOPBACK_DELAY;
            self.loopback.push_back((at, Frame::new(pkt, Route::empty())));
            w.timer(at, w.key(K_LOOPBACK, 0));
        } else {
            w.transmit(pkt);
        }
    }

    /// Protocol processing for one received packet (softirq context; CPU
    /// time already charged).
    pub fn handle_packet(&mut self, pkt: IpPacket, w: &mut Wire) {
        match pkt.transport {
            Transport::Tcp(seg) => self.handle_tcp(pkt.src, seg, pkt.ce, w),
            Transport::Udp(d) => self.handle_udp(pkt.src, d, w),
        }
    }

    fn handle_udp(&mut self, src: NodeAddr, d: UdpDatagram, w: &mut Wire) {
        let Some(&sid) = self.udp_ports.get(&d.dst_port) else {
            return; // no listener; silently dropped (no ICMP model)
        };
        let len = d.msg.len as u64;
        match &mut self.sockets[sid as usize].kind {
            SocketKind::Udp { rx, rx_bytes, .. } if *rx_bytes + len <= UDP_RCVBUF => {
                *rx_bytes += len;
                rx.push_back((SockAddr::new(src, d.src_port), d.msg));
                self.notify(sid, EventMask::READ);
            }
            _ => w.stats.udp_rcv_drops.incr(),
        }
    }

    fn handle_tcp(&mut self, src: NodeAddr, seg: TcpSegment, ce: bool, w: &mut Wire) {
        let remote = SockAddr::new(src, seg.src_port);
        let flow = (seg.dst_port, remote);
        if let Some(&sid) = self.conns.get(&flow) {
            let mut out = TcpOutput::default();
            if let Some((conn, _)) = self.tcp(sid) {
                conn.on_segment(w.now, seg, ce, &mut out);
                self.apply_tcp_output(sid, out, w);
            }
            return;
        }
        let syn = seg.flags.syn && !seg.flags.ack;
        let listener = self.tcp_ports.get(&seg.dst_port).filter(|_| syn);
        let listen = listener.and_then(|&lid| match &self.sockets[lid as usize].kind {
            SocketKind::TcpListen { backlog, queue, embryos, .. } => {
                Some((lid, queue.len() as u32 + embryos < *backlog))
            }
            _ => None,
        });
        match listen {
            // Backlog full: silently drop; the client retries.
            Some((_, false)) => {}
            Some((lid, true)) => {
                let local = SockAddr::new(w.cfg.addr, seg.dst_port);
                let mut out = TcpOutput::default();
                let tcp = w.cfg.profile.tcp.clone();
                let conn = TcpConn::server_from_syn(tcp, local, remote, &seg, w.now, &mut out);
                let sid = self.alloc_socket(SocketKind::tcp(conn, Some(lid)));
                if let SocketKind::TcpListen { embryos, .. } = &mut self.sockets[lid as usize].kind
                {
                    *embryos += 1;
                }
                self.conns.insert(flow, sid);
                self.apply_tcp_output(sid, out, w);
            }
            // No listener: refuse.
            None if syn => self.send_rst(&seg, remote, w),
            None if !seg.flags.rst => {
                w.stats.tcp_bad_segments.incr();
                self.send_rst(&seg, remote, w);
            }
            None => {}
        }
    }

    fn send_rst(&mut self, seg: &TcpSegment, remote: SockAddr, w: &mut Wire) {
        let rst = TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: seg.ack,
            ack: seg.seq_end(),
            flags: TcpFlags::RST,
            wnd: 0,
            payload_len: 0,
            markers: Vec::new(),
        };
        self.tx_packet(IpPacket::tcp(w.cfg.addr, remote.node, rst), w);
    }

    /// Connection `sid`'s timer of `class` (`K_TCP_RTO` or `K_TCP_DELACK`)
    /// fired with `b`.
    pub fn tcp_timer(&mut self, sid: SockId, class: u64, b: u32, w: &mut Wire) {
        let (rto, mut out) = (class == K_TCP_RTO, TcpOutput::default());
        let (now, key) = (w.now, w.key(class, sid));
        if let Some((conn, [rto_timer, delack])) = self.tcp(sid) {
            let timer = if rto { rto_timer } else { delack };
            // A deadline the connection disarmed has no timer to push.
            let armed = if rto { conn.rto_deadline() } else { conn.delack_deadline() };
            timer.deadline = timer.deadline.filter(|_| armed.is_some());
            match timer.fire(now, b, key, w.env) {
                Some(true) if rto => conn.on_rto_timer(now, &mut out),
                Some(true) => conn.on_delack_timer(now, &mut out),
                _ => {}
            }
        }
        self.apply_tcp_output(sid, out, w);
    }

    /// Applies the effects of a TCP engine call: transmit segments, arm
    /// timers, wake waiters, tear down.
    fn apply_tcp_output(&mut self, sid: SockId, out: TcpOutput, w: &mut Wire) {
        let (conn, embryo, listener, app_closed) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, embryo, listener, app_closed, .. } => {
                (conn, *embryo, *listener, *app_closed)
            }
            _ => return,
        };
        let (remote, flow) = (conn.remote, (conn.local.port, conn.remote));
        let (state, died) = (conn.state(), out.reset || conn.timed_out());
        for seg in out.segs {
            self.tx_packet(IpPacket::tcp(w.cfg.addr, remote.node, seg), w);
        }
        for (class, at) in [(K_TCP_RTO, out.arm_rto), (K_TCP_DELACK, out.arm_delack)] {
            let Some(at) = at else { continue };
            let key = w.key(class, sid);
            let (_, [rto, delack]) = self.tcp(sid).expect("a TCP socket");
            w.arm(if class == K_TCP_RTO { rto } else { delack }, at, key);
        }
        if out.established && !embryo {
            // Client side: unblock connect (registered as writer).
            self.notify(sid, EventMask::BOTH);
        } else if let Some(lid) = listener.filter(|_| out.established) {
            // Server side: move to the listener's accept queue.
            if let SocketKind::Tcp { embryo, .. } = &mut self.sockets[sid as usize].kind {
                *embryo = false;
            }
            self.end_handshake(lid, Some(sid));
            self.notify(lid, EventMask::READ);
        }
        let mask = match out.reset || out.closed {
            true => EventMask::BOTH,
            false => EventMask { readable: out.readable, writable: out.writable },
        };
        if !mask.is_empty() {
            self.notify(sid, mask);
        }
        // A half-open connection has no descriptor to wait for. One that
        // was reset or timed out leaves the demultiplexer at once, so a new
        // SYN of its flow reaches the listener; a FIN close keeps its flow
        // until the descriptor closes.
        if state == TcpState::Closed && (app_closed || embryo) {
            self.teardown_tcp(sid);
        } else if out.closed && died {
            release(&mut self.conns, &flow, sid);
        }
    }

    /// Listener `lid`'s handshake of a connection ended: established, the
    /// connection joins the accept queue.
    fn end_handshake(&mut self, lid: SockId, established: Option<SockId>) {
        if let SocketKind::TcpListen { queue, embryos, .. } = &mut self.sockets[lid as usize].kind {
            queue.extend(established);
            *embryos = embryos.saturating_sub(1);
        }
    }

    /// Removes a dead connection from the tables and frees its slot: once
    /// its descriptor is closed, or, half-open, with no descriptor, at once.
    fn teardown_tcp(&mut self, sid: SockId) {
        let (flow, half_open) = match &self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, embryo, listener, .. } => {
                fold_tcp_stats(&mut self.tcp_agg, conn.stats());
                ((conn.local.port, conn.remote), listener.filter(|_| *embryo))
            }
            _ => return,
        };
        release(&mut self.conns, &flow, sid);
        // A client connection owns its port; an accepted one its listener's.
        release(&mut self.tcp_ports, &flow.0, sid);
        if let Some(lid) = half_open {
            self.end_handshake(lid, None);
        }
        self.free_socket(sid);
    }

    // ------------------------------------------------------ socket calls
    //
    // Each returns the call's result, or `None` when the calling thread
    // blocks on the socket, to retry the call once woken.

    pub fn bind(&mut self, sid: SockId, port: u16) -> SysResult {
        match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::RawTcp { .. }) if !self.tcp_ports.contains_key(&port) => {
                self.sockets[sid as usize].kind = SocketKind::RawTcp { port: Some(port) };
                self.tcp_ports.insert(port, sid);
            }
            Some(SocketKind::Udp { .. }) if !self.udp_ports.contains_key(&port) => {
                self.bind_udp(sid, port);
            }
            Some(SocketKind::RawTcp { .. } | SocketKind::Udp { .. }) => {
                return SysResult::Err(Errno::AddrInUse)
            }
            _ => return BAD_FD,
        }
        SysResult::Done
    }

    pub fn listen(&mut self, sid: SockId, backlog: u32) -> SysResult {
        let port = match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::RawTcp { port: Some(p) }) => *p,
            Some(SocketKind::RawTcp { port: None }) => return SysResult::Err(Errno::Invalid),
            _ => return BAD_FD,
        };
        self.sockets[sid as usize].kind = SocketKind::TcpListen {
            port,
            backlog: backlog.max(1),
            queue: VecDeque::new(),
            embryos: 0,
        };
        SysResult::Done
    }

    pub fn accept(&mut self, tid: Tid, sid: SockId, accept4: bool) -> Option<SysResult> {
        let popped = match self.sockets.get_mut(sid as usize).map(|s| &mut s.kind) {
            Some(SocketKind::TcpListen { queue, .. }) => queue.pop_front(),
            _ => return Some(BAD_FD),
        };
        let Some(new_sid) = popped else { return self.would_block(tid, sid, false) };
        if accept4 {
            self.sockets[new_sid as usize].nonblocking = true;
        }
        let peer = self.tcp(new_sid).map_or(SockAddr::default(), |(conn, _)| conn.remote);
        Some(SysResult::Accepted { fd: Fd(new_sid), peer })
    }

    pub fn connect(
        &mut self,
        tid: Tid,
        sid: SockId,
        to: SockAddr,
        w: &mut Wire,
    ) -> Option<SysResult> {
        match self.sockets.get(sid as usize).map(|s| &s.kind) {
            Some(SocketKind::RawTcp { port }) => {
                let lport = port.unwrap_or_else(|| self.ephemeral_port(sid));
                let local = SockAddr::new(w.cfg.addr, lport);
                let mut out = TcpOutput::default();
                let tcp = w.cfg.profile.tcp.clone();
                let conn = TcpConn::client(tcp, local, to, w.now, &mut out);
                self.sockets[sid as usize].kind = SocketKind::tcp(conn, None);
                self.conns.insert((lport, to), sid);
                self.apply_tcp_output(sid, out, w);
                self.would_block(tid, sid, true)
            }
            Some(SocketKind::Tcp { conn, .. }) => match conn.state() {
                TcpState::Established => Some(SysResult::Done),
                TcpState::Closed => Some(SysResult::Err(if conn.timed_out() {
                    Errno::TimedOut
                } else {
                    Errno::ConnRefused
                })),
                _ => self.would_block(tid, sid, true),
            },
            _ => Some(BAD_FD),
        }
    }

    pub fn send(
        &mut self,
        tid: Tid,
        sid: SockId,
        msg: AppMessage,
        w: &mut Wire,
    ) -> Option<SysResult> {
        let Some((conn, _)) = self.tcp(sid) else { return Some(BAD_FD) };
        match conn.state() {
            TcpState::Established => {
                let mut out = TcpOutput::default();
                if conn.app_send(msg, w.now, &mut out).is_err() {
                    return self.would_block(tid, sid, true);
                }
                // Charge TX processing for the emitted segments.
                self.cost += w.cfg.profile.tx_packet_cost * out.segs.len() as u64;
                self.apply_tcp_output(sid, out, w);
                Some(SysResult::Done)
            }
            TcpState::Closed => Some(self.reset_err(sid)),
            _ => Some(SysResult::Err(Errno::NotConnected)),
        }
    }

    /// A call on `sid` that cannot complete: `WouldBlock` on a nonblocking
    /// socket, else `tid` waits to read (or `write`), and blocks.
    fn would_block(&mut self, tid: Tid, sid: SockId, write: bool) -> Option<SysResult> {
        let sock = &mut self.sockets[sid as usize];
        if sock.nonblocking {
            return Some(SysResult::Err(Errno::WouldBlock));
        }
        let waiters = if write { &mut sock.wait_writers } else { &mut sock.wait_readers };
        waiters.push(tid);
        None
    }

    /// What a call on closed connection `sid` fails with.
    fn reset_err(&mut self, sid: SockId) -> SysResult {
        let timed_out = self.tcp(sid).is_some_and(|(conn, _)| conn.timed_out());
        SysResult::Err(if timed_out { Errno::TimedOut } else { Errno::ConnReset })
    }

    pub fn recv(&mut self, tid: Tid, sid: SockId, max: usize, w: &mut Wire) -> Option<SysResult> {
        let Some((conn, _)) = self.tcp(sid) else { return Some(BAD_FD) };
        let mut out = TcpOutput::default();
        let (msgs, eof) = conn.app_recv(max, w.now, &mut out);
        let state = conn.state();
        self.apply_tcp_output(sid, out, w);
        if !msgs.is_empty() || eof {
            let bytes: u64 = msgs.iter().map(|m| m.len as u64).sum();
            self.cost += w.cfg.profile.copy_cost(bytes);
            Some(SysResult::Messages { msgs, eof })
        } else if state == TcpState::Closed {
            Some(self.reset_err(sid))
        } else {
            self.would_block(tid, sid, false)
        }
    }

    pub fn sendto(
        &mut self,
        sid: SockId,
        to: SockAddr,
        msg: AppMessage,
        w: &mut Wire,
    ) -> SysResult {
        if msg.len > 65_507 {
            return SysResult::Err(Errno::MessageTooBig);
        }
        let src_port = match self.sockets.get(sid as usize).map(|s| &s.kind) {
            // Auto-bind an ephemeral UDP port.
            Some(SocketKind::Udp { port: 0, .. }) => self.bind_udp(sid, 0),
            Some(SocketKind::Udp { port, .. }) => *port,
            _ => return BAD_FD,
        };
        let d = UdpDatagram { src_port, dst_port: to.port, msg };
        self.tx_packet(IpPacket::udp(w.cfg.addr, to.node, d), w);
        SysResult::Done
    }

    /// A `recvfrom` that completes at once: a datagram, its copy charged,
    /// or an error, or `None`, changing nothing, if the caller would block.
    pub fn recvfrom(&mut self, fd: Fd, profile: &KernelProfile) -> Option<SysResult> {
        let Some(sock) = self.sockets.get_mut(fd.0 as usize) else { return Some(BAD_FD) };
        let SocketKind::Udp { rx, rx_bytes, .. } = &mut sock.kind else { return Some(BAD_FD) };
        match rx.pop_front() {
            Some((from, msg)) => {
                *rx_bytes -= msg.len as u64;
                self.cost += profile.copy_cost(msg.len as u64);
                Some(SysResult::Datagram { from, msg })
            }
            None => sock.nonblocking.then_some(SysResult::Err(Errno::WouldBlock)),
        }
    }

    pub fn set_nonblocking(&mut self, sid: SockId, on: bool) -> SysResult {
        match self.sockets.get_mut(sid as usize) {
            Some(s) if !matches!(s.kind, SocketKind::Free) => {
                s.nonblocking = on;
                SysResult::Done
            }
            _ => BAD_FD,
        }
    }

    pub fn epoll_ctl(&mut self, ep: SockId, target: SockId, interest: EventMask) -> SysResult {
        if target as usize >= self.sockets.len() {
            return BAD_FD;
        }
        let SocketKind::Epoll { watched } = &mut self.sockets[ep as usize].kind else {
            return BAD_FD;
        };
        watched.retain(|(s, _)| *s != target);
        if !interest.is_empty() {
            watched.push((target, interest));
        }
        let w = &mut self.sockets[target as usize].watchers;
        if interest.is_empty() {
            w.retain(|x| *x != ep);
        } else if !w.contains(&ep) {
            w.push(ep);
        }
        // Level-triggered semantics: if the newly watched socket is already
        // ready, waiters on this epoll must re-evaluate (memcached's
        // dispatcher registers accepted connections from another thread).
        if !interest.is_empty() && !self.readiness(target).intersect(interest).is_empty() {
            self.wake_readers(ep, false);
        }
        SysResult::Done
    }

    pub fn close(&mut self, sid: SockId, w: &mut Wire) -> SysResult {
        if sid as usize >= self.sockets.len() {
            return BAD_FD;
        }
        // No epoll reports a closed descriptor, though a TCP connection
        // may outlive it (its FIN still to be acknowledged).
        self.unwatch(sid);
        match &mut self.sockets[sid as usize].kind {
            SocketKind::Tcp { conn, app_closed, .. } => {
                let mut out = TcpOutput::default();
                conn.app_close(w.now, &mut out);
                *app_closed = true;
                // A connection already closed is torn down here.
                self.apply_tcp_output(sid, out, w);
                return SysResult::Done;
            }
            SocketKind::RawTcp { port: Some(port) } => release(&mut self.tcp_ports, port, sid),
            SocketKind::TcpListen { port, queue, .. } => {
                release(&mut self.tcp_ports, port, sid);
                // The connections it holds, queued or half-open, are reset
                // and leave the tables; accepted ones live on.
                let mut held = Vec::from(std::mem::take(queue));
                held.extend((0..self.sockets.len() as SockId).filter(|&c| {
                    matches!(self.sockets[c as usize].kind,
                        SocketKind::Tcp { embryo: true, listener: Some(l), .. } if l == sid)
                }));
                for c in held {
                    let mut out = TcpOutput::default();
                    if let Some((conn, _)) = self.tcp(c) {
                        conn.abort(&mut out);
                    }
                    self.apply_tcp_output(c, out, w);
                    self.teardown_tcp(c);
                }
            }
            SocketKind::Udp { port, .. } => release(&mut self.udp_ports, port, sid),
            SocketKind::Epoll { watched } => {
                // Unregister from watched sockets.
                for (t, _) in std::mem::take(watched) {
                    if let Some(target) = self.sockets.get_mut(t as usize) {
                        target.watchers.retain(|x| *x != sid);
                    }
                }
            }
            SocketKind::RawTcp { port: None } => {}
            SocketKind::Free => return BAD_FD,
        }
        self.free_socket(sid);
        SysResult::Done
    }
}
