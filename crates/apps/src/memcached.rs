//! A behavioural model of memcached (§4.2).
//!
//! Mirrors the architecture of the real server: a *dispatcher* thread
//! accepts TCP connections and hands them to `epoll`-driven *worker*
//! threads (by registering the socket in the worker's epoll instance, the
//! moral equivalent of memcached's notify pipe); UDP mode shares one
//! socket across all workers. Version differences follow the paper:
//!
//! * **1.4.15** — `accept()` followed by a separate
//!   `fcntl(O_NONBLOCK)` per new connection;
//! * **1.4.17** — `accept4(SOCK_NONBLOCK)`, one syscall fewer per
//!   connection (Figure 15's effect).
//!
//! One client drives it, closed- or open-loop, over TCP or UDP: each
//! request picks a uniformly random server (the paper's setup), sends a
//! GET or SET drawn from the ETC workload model, waits for the reply and
//! records the latency in HDR histograms — overall and per hop-class
//! (Figure 10).

use crate::arrival::{Admission, ArrivalSpec};
use crate::conn::{self, Dial, Dialer, Listen, Redial, Setup, Sock};
use crate::control::{pick_live, DiscoveryConfig, GateState, RegistryClient, GATE_FUTEX_KEY};
use crate::failure::FailureStats;
use crate::udp_loop::{self, Next, Then, UdpGuest, UdpLoop};
use crate::workload::{etc_value_size_for_key, EtcWorkload, KvOp};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::addr::NodeAddr;
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{
    Errno, Fd, Process, ProcessCtx, Proto, Shared, Shm, ShmKey, Step, SysResult, Syscall,
};
use diablo_stack::socket::EventMask;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// GET request kind.
pub const KIND_GET: u32 = 20;
/// SET request kind.
pub const KIND_SET: u32 = 21;
/// Reply kind.
pub const KIND_REPLY: u32 = 22;
/// Default memcached port.
pub const MEMCACHED_PORT: u16 = 11211;
/// Reply protocol overhead bytes.
const REPLY_OVERHEAD: u32 = 32;
/// Small reply (SET acknowledgement / miss).
const SMALL_REPLY: u32 = 8;

/// Which memcached release is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McVersion {
    /// 1.4.15: `accept` + `fcntl`.
    V1_4_15,
    /// 1.4.17: `accept4`.
    V1_4_17,
}

impl McVersion {
    /// Human-readable version string.
    pub fn as_str(self) -> &'static str {
        match self {
            McVersion::V1_4_15 => "1.4.15",
            McVersion::V1_4_17 => "1.4.17",
        }
    }
}

/// The string [`McVersion::as_str`] prints: `1.4.15` or `1.4.17`.
impl std::str::FromStr for McVersion {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        [McVersion::V1_4_15, McVersion::V1_4_17]
            .into_iter()
            .find(|v| v.as_str() == tok)
            .ok_or_else(|| format!("unknown memcached version `{tok}` (expected 1.4.15|1.4.17)"))
    }
}

/// The memory the dispatcher and workers of one server share: the fds
/// they publish to each other.
#[derive(Debug, Default)]
pub struct McShared {
    /// Worker epoll fds, published as workers start.
    pub worker_epfds: Vec<Option<Fd>>,
    /// The shared UDP socket, once created by the dispatcher.
    pub udp_fd: Option<Fd>,
}

impl McShared {
    /// Nothing published yet, for `workers` worker threads.
    pub fn new(workers: usize) -> Self {
        McShared { worker_epfds: vec![None; workers], udp_fd: None }
    }
}

/// The crash wiped every socket: the dispatcher and workers publish their
/// fds again from scratch.
impl Shared for McShared {
    fn reboot(&mut self) {
        self.worker_epfds.fill(None);
        self.udp_fd = None;
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct McServerConfig {
    /// TCP (and UDP) port.
    pub port: u16,
    /// Worker threads (the paper tests 4 and 8).
    pub workers: usize,
    /// Modeled release.
    pub version: McVersion,
    /// Also serve UDP.
    pub udp: bool,
    /// Instructions of application logic per request (hash, LRU, item
    /// handling).
    pub request_work: u64,
}

impl Default for McServerConfig {
    fn default() -> Self {
        McServerConfig {
            port: MEMCACHED_PORT,
            workers: 4,
            version: McVersion::V1_4_17,
            udp: true,
            request_work: 2_500,
        }
    }
}

// ====================================================================
// Dispatcher thread
// ====================================================================

/// The memcached dispatcher: accepts connections and assigns them
/// round-robin to worker epolls; creates the shared UDP socket.
///
/// Under the control plane a dispatcher is *gated* by its node's
/// [`GateState`]: a standby replica parks on a futex until the co-located
/// [`ControlAgent`](crate::control::ControlAgent) activates the gate,
/// modeling cold-start warmup — the replica boots its whole socket
/// machinery (and its workers fill a cold cache) only after placement. A
/// node without a gate always serves.
#[derive(Debug)]
pub struct McDispatcher {
    cfg: McServerConfig,
    shared: ShmKey<McShared>,
    state: DispState,
    next_worker: usize,
    /// Last futex eventcount observed while parked on the gate.
    last_futex: u64,
    /// Connections accepted.
    pub accepted: u64,
}

/// Where the dispatcher stands, with its listening socket once it has
/// one, then the UDP socket or the connection it hands over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispState {
    Start,
    Standby,
    Listen(Listen),
    /// UDP `socket` in flight.
    UdpSocket(Fd),
    /// UDP `bind` in flight.
    UdpBind(Fd, Fd),
    /// Registering the UDP socket with worker `i` on, once every worker
    /// has published its epoll instance.
    RegisterUdp(Fd, Fd, usize),
    /// `accept` goes next, once every worker has published.
    Accept(Fd),
    /// `accept` in flight.
    Accepting(Fd),
    /// The accepted connection goes to the next worker.
    Assign(Fd, Fd),
}

impl McDispatcher {
    /// Creates the dispatcher.
    pub fn new(cfg: McServerConfig, shared: ShmKey<McShared>) -> Self {
        McDispatcher {
            cfg,
            shared,
            state: DispState::Start,
            next_worker: 0,
            last_futex: 0,
            accepted: 0,
        }
    }

    /// A `nanosleep` while a worker has not published its epoll instance.
    fn await_workers(&self, shm: &Shm) -> Option<Step> {
        let unpublished = shm.get(self.shared).worker_epfds.contains(&None);
        unpublished.then(|| Step::Syscall(Syscall::Nanosleep(SimDuration::from_micros(100))))
    }
}

impl Process for McDispatcher {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                DispState::Start => {
                    if ctx.shm.find::<GateState>().is_some_and(|g| !ctx.shm.get(g).active) {
                        // Standby: park on GATE_FUTEX_KEY until the control
                        // agent activates this replica and wakes the futex.
                        self.state = DispState::Standby;
                        return Step::Syscall(Syscall::FutexWait {
                            key: GATE_FUTEX_KEY,
                            seen: self.last_futex,
                        });
                    }
                    self.state = DispState::Listen(Listen::Start);
                    continue;
                }
                DispState::Standby => {
                    if let SysResult::FutexVal(v) = ctx.result {
                        self.last_futex = v;
                    }
                    // Re-check the gate — a wake may carry a deactivate
                    // or a stale generation; Start re-parks if so.
                    self.state = DispState::Start;
                    continue;
                }
                DispState::Listen(l) => match conn::listen(l, self.cfg.port, 1024, ctx) {
                    Setup::Call(l, call) => {
                        self.state = DispState::Listen(l);
                        return Step::Syscall(call);
                    }
                    Setup::Up(lfd) if self.cfg.udp => {
                        self.state = DispState::UdpSocket(lfd);
                        return Step::Syscall(Syscall::Socket(Proto::Udp));
                    }
                    Setup::Up(lfd) => {
                        self.state = DispState::Accept(lfd);
                        continue;
                    }
                },
                DispState::UdpSocket(lfd) => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.state = DispState::UdpBind(lfd, fd);
                    return Step::Syscall(Syscall::Bind { fd, port: self.cfg.port });
                }
                DispState::UdpBind(lfd, fd) => {
                    assert_eq!(ctx.result, SysResult::Done, "udp bind failed");
                    ctx.shm.get_mut(self.shared).udp_fd = Some(fd);
                    self.state = DispState::RegisterUdp(lfd, fd, 0);
                    continue;
                }
                DispState::RegisterUdp(lfd, fd, i) => {
                    if let Some(wait) = self.await_workers(ctx.shm) {
                        return wait;
                    }
                    if i >= self.cfg.workers {
                        self.state = DispState::Accept(lfd);
                        continue;
                    }
                    let epfd = ctx.shm.get(self.shared).worker_epfds[i].expect("worker not ready");
                    self.state = DispState::RegisterUdp(lfd, fd, i + 1);
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd,
                        fd,
                        interest: EventMask::READ,
                    });
                }
                DispState::Accept(lfd) => {
                    if let Some(wait) = self.await_workers(ctx.shm) {
                        return wait;
                    }
                    self.state = DispState::Accepting(lfd);
                    return Step::Syscall(Syscall::Accept {
                        fd: lfd,
                        accept4: self.cfg.version == McVersion::V1_4_17,
                    });
                }
                DispState::Accepting(lfd) => {
                    let SysResult::Accepted { fd, .. } = ctx.result else {
                        panic!("accept failed: {:?}", ctx.result)
                    };
                    self.accepted += 1;
                    self.state = DispState::Assign(lfd, fd);
                    if self.cfg.version == McVersion::V1_4_15 {
                        // Extra fcntl per connection.
                        return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                    }
                    continue;
                }
                DispState::Assign(lfd, fd) => {
                    let w = self.next_worker % self.cfg.workers;
                    self.next_worker += 1;
                    let epfd = ctx.shm.get(self.shared).worker_epfds[w].expect("worker not ready");
                    // The EpollCtl is the "notify worker" step; afterwards
                    // back to the next accept.
                    self.state = DispState::Accept(lfd);
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd,
                        fd,
                        interest: EventMask::READ,
                    });
                }
            }
        }
    }

    fn visit_metrics(&self, shm: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("accepted", self.accepted);
        if let Some(gate) = shm.find::<GateState>() {
            v.gauge("service_active", if shm.get(gate).active { 1.0 } else { 0.0 });
        }
    }

    fn reset(&mut self) -> bool {
        self.state = DispState::Start;
        self.next_worker = 0;
        // The crash wiped the kernel's futex table; its eventcount
        // restarts from zero, so the parked-on value must too.
        self.last_futex = 0;
        true
    }
}

// ====================================================================
// Worker thread
// ====================================================================

/// Pending work unit inside a worker.
#[derive(Debug, Clone, PartialEq)]
enum Act {
    RecvTcp(Fd),
    RecvUdp(Fd),
    Flush(Fd),
    Ctl(Fd, EventMask),
    SendUdp(Fd, SockAddr, AppMessage),
    CloseConn(Fd),
}

#[derive(Debug, Default)]
struct ConnOut {
    outbox: VecDeque<AppMessage>,
    write_registered: bool,
}

/// A memcached worker thread: drains its epoll, parses requests, touches
/// the item table and sends replies.
#[derive(Debug)]
pub struct McWorker {
    /// This worker's index.
    pub index: usize,
    cfg: McServerConfig,
    shared: ShmKey<McShared>,
    state: WkState,
    conns: HashMap<Fd, ConnOut>,
    queue: VecDeque<Act>,
    inflight: Option<Act>,
    store: HashMap<u64, u32>,
    /// Requests this worker served.
    pub served: u64,
}

/// Where the worker stands, with its epoll instance once it has one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WkState {
    Start,
    /// `epoll_create` in flight.
    Publish,
    Wait(Fd),
    Run(Fd),
}

impl McWorker {
    /// Creates worker `index`.
    pub fn new(index: usize, cfg: McServerConfig, shared: ShmKey<McShared>) -> Self {
        McWorker {
            index,
            cfg,
            shared,
            state: WkState::Start,
            conns: HashMap::new(),
            queue: VecDeque::new(),
            inflight: None,
            store: HashMap::new(),
            served: 0,
        }
    }

    /// Builds the reply for one request and the compute cost it incurs.
    fn serve(&mut self, req: &AppMessage, now: SimTime) -> (AppMessage, u64) {
        self.served += 1;
        let key = req.arg0;
        let reply_len = match req.kind {
            KIND_GET => {
                let size =
                    self.store.get(&key).copied().unwrap_or_else(|| etc_value_size_for_key(key));
                REPLY_OVERHEAD + size
            }
            KIND_SET => {
                self.store.insert(key, req.arg1 as u32);
                SMALL_REPLY
            }
            other => panic!("unknown request kind {other}"),
        };
        let mut reply = AppMessage::new(KIND_REPLY, req.id, reply_len, now);
        reply.arg0 = key;
        reply.arg1 = req.created_at.as_picos();
        (reply, self.cfg.request_work)
    }
}

impl Process for McWorker {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                WkState::Start => {
                    self.state = WkState::Publish;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                WkState::Publish => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    ctx.shm.get_mut(self.shared).worker_epfds[self.index] = Some(ep);
                    self.state = WkState::Wait(ep);
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: ep,
                        max_events: 64,
                        timeout: None,
                    });
                }
                WkState::Wait(ep) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            let udp = ctx.shm.get(self.shared).udp_fd;
                            for (fd, mask) in evs {
                                if Some(fd) == udp {
                                    if !self.queue.contains(&Act::RecvUdp(fd)) {
                                        self.queue.push_back(Act::RecvUdp(fd));
                                    }
                                } else {
                                    // Track the connection from first sight
                                    // so stale queue entries for recycled
                                    // descriptors can be recognized.
                                    self.conns.entry(fd).or_default();
                                    if mask.readable && !self.queue.contains(&Act::RecvTcp(fd)) {
                                        self.queue.push_back(Act::RecvTcp(fd));
                                    }
                                    if mask.writable && !self.queue.contains(&Act::Flush(fd)) {
                                        self.queue.push_back(Act::Flush(fd));
                                    }
                                }
                            }
                            self.state = WkState::Run(ep);
                            continue;
                        }
                        other => panic!("epoll_wait failed: {other:?}"),
                    }
                }
                WkState::Run(ep) => {
                    // Interpret the result of the in-flight action, then
                    // issue the next one.
                    if let Some(act) = self.inflight.take() {
                        let result = std::mem::replace(&mut ctx.result, SysResult::Computed);
                        let mut compute = 0u64;
                        match (act, result) {
                            (Act::RecvTcp(fd), SysResult::Messages { msgs, eof }) => {
                                if msgs.is_empty() && eof {
                                    self.queue.push_back(Act::CloseConn(fd));
                                } else {
                                    let now = ctx.now;
                                    for req in &msgs {
                                        let (reply, work) = self.serve(req, now);
                                        compute += work;
                                        self.conns.entry(fd).or_default().outbox.push_back(reply);
                                    }
                                    self.queue.push_back(Act::Flush(fd));
                                }
                            }
                            (Act::RecvTcp(_), SysResult::Err(Errno::WouldBlock)) => {}
                            (Act::RecvTcp(fd), SysResult::Err(Errno::BadFd)) => {
                                self.conns.remove(&fd);
                            }
                            (Act::RecvTcp(fd), SysResult::Err(_)) => {
                                self.queue.push_back(Act::CloseConn(fd));
                            }
                            (Act::RecvUdp(fd), SysResult::Datagram { from, msg }) => {
                                let now = ctx.now;
                                let (reply, work) = self.serve(&msg, now);
                                compute += work;
                                self.queue.push_back(Act::SendUdp(fd, from, reply));
                                self.queue.push_back(Act::RecvUdp(fd));
                            }
                            (Act::RecvUdp(_), SysResult::Err(Errno::WouldBlock)) => {}
                            (Act::Flush(fd), SysResult::Done) => {
                                let conn = self.conns.entry(fd).or_default();
                                conn.outbox.pop_front();
                                if !conn.outbox.is_empty() {
                                    self.queue.push_back(Act::Flush(fd));
                                } else if conn.write_registered {
                                    conn.write_registered = false;
                                    self.queue.push_back(Act::Ctl(fd, EventMask::READ));
                                }
                            }
                            (Act::Flush(fd), SysResult::Err(Errno::WouldBlock)) => {
                                let conn = self.conns.entry(fd).or_default();
                                if !conn.write_registered {
                                    conn.write_registered = true;
                                    self.queue.push_back(Act::Ctl(fd, EventMask::BOTH));
                                }
                            }
                            (Act::Flush(fd), SysResult::Err(Errno::BadFd)) => {
                                self.conns.remove(&fd);
                            }
                            (Act::Flush(fd), SysResult::Err(_)) => {
                                self.queue.push_back(Act::CloseConn(fd));
                            }
                            (Act::Ctl(..), _) => {}
                            (Act::SendUdp(..), _) => {}
                            (Act::CloseConn(..), _) => {}
                            (act, other) => {
                                panic!("worker {act:?} got unexpected result {other:?}")
                            }
                        }
                        if compute > 0 {
                            return Step::Compute(compute);
                        }
                    }
                    // Issue the next queued action.
                    match self.queue.pop_front() {
                        Some(Act::RecvTcp(fd)) => {
                            if !self.conns.contains_key(&fd) {
                                continue; // stale: connection already closed
                            }
                            self.inflight = Some(Act::RecvTcp(fd));
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 8 });
                        }
                        Some(Act::RecvUdp(fd)) => {
                            self.inflight = Some(Act::RecvUdp(fd));
                            return Step::Syscall(Syscall::RecvFrom { fd });
                        }
                        Some(Act::Flush(fd)) => {
                            let Some(conn) = self.conns.get_mut(&fd) else {
                                continue; // stale
                            };
                            // The message stays queued until Send succeeds,
                            // so a WouldBlock retries it on writability.
                            match conn.outbox.front().copied() {
                                Some(msg) => {
                                    self.inflight = Some(Act::Flush(fd));
                                    return Step::Syscall(Syscall::Send { fd, msg });
                                }
                                None => continue,
                            }
                        }
                        Some(Act::Ctl(fd, mask)) => {
                            self.inflight = Some(Act::Ctl(fd, mask));
                            return Step::Syscall(Syscall::EpollCtl {
                                epfd: ep,
                                fd,
                                interest: mask,
                            });
                        }
                        Some(Act::SendUdp(fd, to, msg)) => {
                            self.inflight = Some(Act::SendUdp(fd, to, msg));
                            return Step::Syscall(Syscall::SendTo { fd, to, msg });
                        }
                        Some(Act::CloseConn(fd)) => {
                            if self.conns.remove(&fd).is_none() {
                                continue; // stale: already closed
                            }
                            self.inflight = Some(Act::CloseConn(fd));
                            return Step::Syscall(Syscall::Close { fd });
                        }
                        None => {
                            self.state = WkState::Wait(ep);
                            return Step::Syscall(Syscall::EpollWait {
                                epfd: ep,
                                max_events: 64,
                                timeout: None,
                            });
                        }
                    }
                }
            }
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        // The crash wiped the item table along with the sockets — a
        // rebooted cache comes back cold.
        self.state = WkState::Start;
        self.conns.clear();
        self.queue.clear();
        self.inflight = None;
        self.store.clear();
        true
    }
}

// ====================================================================
// Client
// ====================================================================

/// Key space size of every client's workload.
const KEYSPACE: usize = 100_000;
/// UDP: how long a client waits for a reply before retrying.
const UDP_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// UDP: retries before a closed-loop client counts a failure.
const UDP_MAX_RETRIES: u32 = 2;
/// TCP: consecutive connection failures tolerated per request before
/// the request is abandoned.
const TCP_MAX_RETRIES: u32 = 8;

/// The GET or SET request for `op`, numbered `id`, sent at `now`: the one
/// request codec both transports speak.
fn request_msg(op: KvOp, id: u64, now: SimTime) -> AppMessage {
    let kind = match op {
        KvOp::Get { .. } => KIND_GET,
        KvOp::Set { .. } => KIND_SET,
    };
    let mut m = AppMessage::new(kind, id, op.request_size(), now);
    m.arg0 = op.key();
    if let KvOp::Set { value_size, .. } = op {
        m.arg1 = value_size as u64;
    }
    m
}

/// Client configuration.
#[derive(Clone)]
pub struct McClientConfig {
    /// The memcached fleet, one list shared by every client.
    pub servers: Arc<[SockAddr]>,
    /// Transport (the paper compares both).
    pub proto: Proto,
    /// Requests to issue (30,000 in the paper; reduce for quick runs).
    pub requests: u64,
    /// Instructions of client-side think time between requests.
    pub think: u64,
    /// Delay before the first request (stagger startup).
    pub start_delay: SimDuration,
    /// TCP: close and re-open a server connection after this many uses
    /// (connection churn keeps the server's accept path hot — the code
    /// path `accept4` shortens).
    pub reconnect_every: Option<u64>,
    /// TCP: wait for each reply through `epoll` for this long, then
    /// reconnect and retry (`None`: a blocking receive). Open loop: how
    /// long a request may go unanswered (default `UDP_TIMEOUT`).
    pub request_deadline: Option<SimDuration>,
    /// Maps a server node to a hop class index (0 = local, 1 = one-hop,
    /// 2 = two-hop) for Figure 10's breakdown.
    pub classify: Option<Arc<dyn Fn(NodeAddr) -> usize + Send + Sync>>,
    /// Open loop (UDP only): admit requests on this schedule, ignoring
    /// `requests`, `think` and `start_delay`.
    pub arrival: Option<ArrivalSpec>,
    /// Open loop: requests in flight at most; admissions beyond are shed.
    pub window: usize,
    /// Open loop: latency SLO target checked on every completion.
    pub slo: Option<SimDuration>,
    /// Open loop: route to the live replicas of the control plane's
    /// registry; `servers` is the pool its liveness mask indexes.
    pub discovery: Option<DiscoveryConfig>,
}

impl std::fmt::Debug for McClientConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McClientConfig")
            .field("servers", &self.servers.len())
            .field("proto", &self.proto)
            .field("requests", &self.requests)
            .finish()
    }
}

impl McClientConfig {
    /// A TCP client issuing `requests` requests over `servers`.
    pub fn tcp(servers: impl Into<Arc<[SockAddr]>>, requests: u64) -> Self {
        McClientConfig {
            servers: servers.into(),
            proto: Proto::Tcp,
            requests,
            think: 6_000,
            start_delay: SimDuration::ZERO,
            reconnect_every: None,
            request_deadline: None,
            classify: None,
            arrival: None,
            window: 64,
            slo: None,
            discovery: None,
        }
    }

    /// A UDP client issuing `requests` requests over `servers`.
    pub fn udp(servers: impl Into<Arc<[SockAddr]>>, requests: u64) -> Self {
        McClientConfig { proto: Proto::Udp, ..Self::tcp(servers, requests) }
    }
}

/// A UDP request sent and not yet answered: its server index, when it
/// was first sent (its latency counts from there), when its wait ends,
/// and the re-sends it has left.
#[derive(Debug, Clone, Copy)]
struct Pending {
    id: u64,
    server: usize,
    op: KvOp,
    sent_at: SimTime,
    expires: SimTime,
    retries: u32,
}

/// The memcached client. Its [`Admission`] makes it closed-loop (one
/// request in flight, the next after the last one's completion plus
/// `think`) or open-loop (UDP only: up to `window` requests in flight,
/// started on an arrival schedule, the rest shed).
///
/// Over UDP it is a [`UdpGuest`] whose requests live in one in-flight
/// table, and one expiry rule handles them: a request unanswered by its
/// expiry is re-sent while it has retries left, else given up. A closed
/// loop gives each request two retries and each send or stale reply a
/// full `UDP_TIMEOUT` wait, and records a given-up request as a failure
/// with its latency; an open loop gives each one `request_deadline` and
/// no retry, and counts it timed out and unanswered. Over TCP (closed
/// loop only) it keeps one connection per server, dialed through
/// [`conn::dial`].
#[derive(Debug)]
pub struct McClient {
    cfg: McClientConfig,
    rng: DetRng,
    workload: EtcWorkload,
    /// When requests start, and the open-loop books.
    pub admission: Admission,
    /// Where the closed loop stands between requests.
    pace: Pace,
    /// TCP: where the client stands, with its descriptors once set up.
    state: CliState,
    /// UDP: where its loop stands.
    io: UdpLoop,
    /// TCP connections by server index, with per-connection use counts.
    conns: HashMap<usize, (Fd, u64)>,
    /// UDP: requests sent and not yet answered, in id order.
    inflight: Vec<Pending>,
    /// UDP open loop: admitted requests waiting for their `sendto`.
    sendq: VecDeque<(usize, KvOp)>,
    /// The closed loop's last request picked, until the next reset, and
    /// over TCP its server and its last send.
    current_op: Option<KvOp>,
    current_server: usize,
    sent_at: SimTime,
    issued: u64,
    /// Request latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Latency by hop class: local / one-hop / two-hop.
    pub latency_by_class: [Histogram; 3],
    /// Requests completed, a closed loop's given-up ones included.
    pub completed: u64,
    /// UDP retransmissions performed.
    pub udp_retries: u64,
    /// Closed loop: requests abandoned after exhausting retries.
    pub failures: u64,
    /// Open loop: requests that expired unanswered.
    pub timed_out: u64,
    /// TCP failure/recovery and crash-loss accounting.
    pub failure: FailureStats,
    /// TCP reconnect backoff, its jitter drawn from the client's
    /// address-seeded stream so a mass crash does not retry in lockstep.
    redial: Redial,
    /// Registry discovery, under `cfg.discovery`.
    pub registry: RegistryClient,
    /// Finished cleanly.
    pub done: bool,
    /// When the client finished.
    pub finished_at: SimTime,
}

/// What a closed loop does next between requests: its start delay, its
/// think time (or its exit once every request is issued), or its pick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pace {
    Delay,
    Think,
    Pick,
}

/// The descriptors a TCP client holds besides its connections: none, or
/// under a request deadline the epoll instance it waits in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Io {
    Tcp,
    TcpEpoll(Fd),
}

/// Where a TCP client stands, with its descriptors once set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliState {
    Start,
    /// With a request deadline: `epoll_create` in flight.
    TcpEpoll,
    /// Between requests: the closed loop's pace decides.
    Idle(Io),
    /// Dialing `current_server`.
    Dial(Io, Dial),
    /// The send, the deadline wait or the receive of the request on the
    /// connection in flight.
    AwaitTcp(Io, Fd),
}

impl McClient {
    /// Creates a client with a deterministic RNG stream; open-loop when
    /// `cfg.arrival` is set.
    pub fn new(cfg: McClientConfig, rng: DetRng) -> Self {
        McClient {
            workload: EtcWorkload::new(rng.derive(1), KEYSPACE),
            redial: Redial::new(rng.derive(0xBACC0FF)),
            admission: Admission::new(cfg.arrival.as_ref(), rng.derive(2), cfg.slo),
            rng,
            pace: Pace::Delay,
            state: CliState::Start,
            io: UdpLoop::Start,
            conns: HashMap::new(),
            inflight: Vec::new(),
            sendq: VecDeque::new(),
            current_server: 0,
            current_op: None,
            sent_at: SimTime::ZERO,
            issued: 0,
            latency: Histogram::new(),
            latency_by_class: [Histogram::new(), Histogram::new(), Histogram::new()],
            completed: 0,
            udp_retries: 0,
            failures: 0,
            timed_out: 0,
            failure: FailureStats::default(),
            registry: RegistryClient::new(cfg.discovery.as_ref()),
            done: false,
            finished_at: SimTime::ZERO,
            cfg,
        }
    }

    /// Refuses a restored server index the rebuilt server list cannot
    /// hold: it would decode, then panic at the client's next send or dial
    /// (a dial aims at `current_server`).
    fn check_server_indices(&mut self) -> Result<(), SnapError> {
        let n = self.cfg.servers.len();
        let sent = self.inflight.iter().map(|p| p.server);
        let queued = self.sendq.iter().map(|&(i, _)| i);
        let tcp = self.conns.keys().copied().chain([self.current_server]);
        match tcp.chain(sent).chain(queued).find(|&i| i >= n) {
            Some(i) => Err(SnapError::Malformed(format!("server index {i} of a client with {n}"))),
            None => Ok(()),
        }
    }

    /// Requests holding window slots.
    fn in_flight(&self) -> usize {
        self.inflight.len() + self.sendq.len()
    }

    /// UDP: the window, each request's retries and each attempt's wait.
    fn udp_rule(&self) -> (usize, u32, SimDuration) {
        match self.cfg.arrival {
            None => (1, UDP_MAX_RETRIES, UDP_TIMEOUT),
            Some(_) => (self.cfg.window, 0, self.cfg.request_deadline.unwrap_or(UDP_TIMEOUT)),
        }
    }

    /// The closed loop between requests: the start delay, then before
    /// each request its think time and its pick, which becomes the current
    /// op. `Err` is the sleep, the think, or the exit once every request
    /// is issued.
    fn pace(&mut self, now: SimTime) -> Result<(usize, KvOp), Next> {
        loop {
            match self.pace {
                Pace::Delay => {
                    self.pace = Pace::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Err(Next::Sleep(self.cfg.start_delay));
                    }
                }
                Pace::Think if self.issued >= self.cfg.requests => {
                    self.done = true;
                    self.finished_at = now;
                    return Err(Next::Exit);
                }
                Pace::Think => {
                    self.pace = Pace::Pick;
                    return Err(Next::Compute(self.cfg.think));
                }
                Pace::Pick => {
                    self.pace = Pace::Think;
                    let (server, op) = self.pick();
                    self.current_op = Some(op);
                    return Ok((server, op));
                }
            }
        }
    }

    /// The next request's server and operation. With discovery the server
    /// is a live replica from the registry mask; with every replica down it
    /// is a blind pool pick (it will time out — exactly the outage the SLO
    /// accounting should see). Either path draws exactly one value, keeping
    /// the stream replayable.
    fn pick(&mut self) -> (usize, KvOp) {
        let n = self.cfg.servers.len();
        let live = self
            .cfg
            .discovery
            .as_ref()
            .and_then(|_| pick_live(self.registry.live_mask(), n, &mut self.rng));
        let server = live.unwrap_or_else(|| self.rng.next_below(n as u64) as usize);
        (server, self.workload.next_op())
    }

    /// Records a request sent to `server` at `sent_at` as completed `now`.
    fn record(&mut self, server: usize, sent_at: SimTime, now: SimTime) {
        let latency = now.saturating_duration_since(sent_at);
        self.latency.record(latency.as_nanos());
        if let Some(classify) = &self.cfg.classify {
            let class = classify(self.cfg.servers[server].node).min(2);
            self.latency_by_class[class].record(latency.as_nanos());
        }
        self.completed += 1;
        self.admission.on_complete(latency);
    }

    /// UDP: sends a new request to `server`, entering it in the table.
    fn send_udp(&mut self, server: usize, op: KvOp, now: SimTime) -> Next {
        let (_, retries, wait) = self.udp_rule();
        self.issued += 1;
        let id = self.issued - 1;
        self.inflight.push(Pending { id, server, op, sent_at: now, expires: now + wait, retries });
        Next::Send(self.cfg.servers[server], request_msg(op, id, now))
    }

    /// UDP: the one expiry rule. A request unanswered by its expiry is
    /// re-sent (returned) while it has retries left, and given up
    /// otherwise: a closed loop records it as a failure with its latency,
    /// an open loop as timed out and unanswered.
    fn expire(&mut self, now: SimTime) -> Option<Next> {
        let (_, _, wait) = self.udp_rule();
        while let Some(i) = self.inflight.iter().position(|p| p.expires <= now) {
            let p = &mut self.inflight[i];
            if p.retries > 0 {
                p.retries -= 1;
                p.expires = now + wait;
                self.udp_retries += 1;
                return Some(Next::Send(self.cfg.servers[p.server], request_msg(p.op, p.id, now)));
            }
            let p = self.inflight.remove(i);
            if self.cfg.arrival.is_some() {
                self.timed_out += 1;
                self.admission.on_unanswered();
            } else {
                self.failures += 1;
                self.record(p.server, p.sent_at, now);
            }
        }
        None
    }

    /// A closed loop's every wait is a full `UDP_TIMEOUT`: one follows each
    /// send and each stale reply.
    fn rearm(&mut self, now: SimTime) {
        if self.cfg.arrival.is_none() {
            self.inflight.iter_mut().for_each(|p| p.expires = now + UDP_TIMEOUT);
        }
    }

    /// TCP: sends the request on connection `fd`, its `uses`-th before.
    fn send_tcp(&mut self, io: Io, fd: Fd, uses: u64, now: SimTime) -> Step {
        let Some(op) = self.current_op else { unreachable!("a request is sent once picked") };
        self.sent_at = now;
        self.conns.insert(self.current_server, (fd, uses + 1));
        self.state = CliState::AwaitTcp(io, fd);
        Step::Syscall(Syscall::Send { fd, msg: request_msg(op, self.issued - 1, now) })
    }

    /// TCP: enters the failure path: the current server's connection `fd`
    /// is retired and closed, and the dial decides between retry and
    /// give-up.
    fn tcp_fail(&mut self, io: Io, fd: Fd, now: SimTime) -> Step {
        self.conns.remove(&self.current_server);
        let (d, call) = self.redial.fail(&mut self.failure, fd, now);
        self.state = CliState::Dial(io, d);
        Step::Syscall(call)
    }

    /// TCP: steps the closed loop over its connections.
    fn step_tcp(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        loop {
            match self.state {
                CliState::Start => {
                    if self.cfg.request_deadline.is_some() {
                        self.state = CliState::TcpEpoll;
                        return Step::Syscall(Syscall::EpollCreate);
                    }
                    self.state = CliState::Idle(Io::Tcp);
                }
                CliState::TcpEpoll => {
                    let SysResult::NewFd(ep) = ctx.result else {
                        panic!("{:?} in client set-up", ctx.result)
                    };
                    self.state = CliState::Idle(Io::TcpEpoll(ep));
                }
                CliState::Idle(io) => {
                    let server = match self.pace(ctx.now) {
                        Ok((server, _)) => server,
                        Err(Next::Sleep(d)) => return Step::Syscall(Syscall::Nanosleep(d)),
                        Err(Next::Compute(think)) => return Step::Compute(think),
                        Err(_) => return Step::Exit,
                    };
                    self.current_server = server;
                    self.issued += 1;
                    let Some(&(fd, uses)) = self.conns.get(&server) else {
                        self.state = CliState::Dial(io, Dial::Start);
                        continue;
                    };
                    if self.cfg.reconnect_every.is_some_and(|limit| uses >= limit) {
                        // Churn: re-open the connection before this request.
                        self.conns.remove(&server);
                        self.state = CliState::Dial(io, Dial::Start);
                        return Step::Syscall(Syscall::Close { fd });
                    }
                    return self.send_tcp(io, fd, uses, ctx.now);
                }
                CliState::Dial(io, d) => {
                    if d == Dial::Close && self.redial.attempts > TCP_MAX_RETRIES {
                        // The failed socket is closed and the retries are
                        // spent: abandon the request.
                        self.failures += 1;
                        self.failure.on_give_up();
                        self.redial.attempts = 0;
                        self.record(self.current_server, self.sent_at, ctx.now);
                        self.state = CliState::Idle(io);
                        continue;
                    }
                    // Blocking, registered when it waits out a deadline.
                    let epfd = if let Io::TcpEpoll(ep) = io { Some(ep) } else { None };
                    let to = self.cfg.servers[self.current_server];
                    match conn::dial(self, d, Sock { to, nonblocking: false, epfd }, ctx) {
                        Setup::Call(d, call) => {
                            self.state = CliState::Dial(io, d);
                            return Step::Syscall(call);
                        }
                        Setup::Up(fd) => return self.send_tcp(io, fd, 0, ctx.now),
                    }
                }
                CliState::AwaitTcp(io, fd) => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        // Send completed; wait for the reply.
                        SysResult::Done => {
                            if let Io::TcpEpoll(epfd) = io {
                                return Step::Syscall(Syscall::EpollWait {
                                    epfd,
                                    max_events: 4,
                                    timeout: self.cfg.request_deadline,
                                });
                            }
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 1 });
                        }
                        // Deadline expired without a reply.
                        SysResult::Events(evs) if evs.is_empty() => {
                            return self.tcp_fail(io, fd, ctx.now);
                        }
                        // Data (or EOF) on the current connection — failed
                        // connections are always closed, which drops their
                        // epoll registrations, so only the in-flight fd can
                        // trigger here.
                        SysResult::Events(_) => {
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 1 });
                        }
                        SysResult::Messages { msgs, eof } => {
                            if msgs.is_empty() {
                                // EOF before the reply: the server went away.
                                debug_assert!(eof);
                                return self.tcp_fail(io, fd, ctx.now);
                            }
                            assert_eq!(msgs.len(), 1);
                            assert_eq!(msgs[0].id, self.issued - 1, "reply id mismatch");
                            self.failure.on_success(ctx.now);
                            self.redial.attempts = 0;
                            self.record(self.current_server, self.sent_at, ctx.now);
                            self.state = CliState::Idle(io);
                        }
                        // Send or receive hit a transport error (connection
                        // reset, retransmission timeout): reconnect.
                        SysResult::Err(_) => return self.tcp_fail(io, fd, ctx.now),
                        other => panic!("tcp request failed: {other:?}"),
                    }
                }
            }
        }
    }
}

impl Dialer for McClient {
    fn retry(&mut self) -> Option<(&mut FailureStats, &mut Redial)> {
        Some((&mut self.failure, &mut self.redial))
    }

    fn on_connect(&mut self, _: SimTime) {
        if self.redial.attempts > 0 {
            self.failure.reconnects += 1;
            self.failure.retried += 1;
        }
    }
}

impl UdpGuest for McClient {
    fn io(&mut self) -> &mut UdpLoop {
        &mut self.io
    }

    /// An open loop drains every reply; a closed loop reads the one it
    /// waits for, on a blocking socket.
    fn drains(&self) -> bool {
        self.cfg.arrival.is_some()
    }

    fn pump(&mut self, ctx: &mut ProcessCtx<'_>) -> Next {
        let now = ctx.now;
        if let Some(resend) = self.expire(now) {
            return resend;
        }
        let (window, _, _) = self.udp_rule();
        match self.admission.admit(now, window.saturating_sub(self.in_flight())) {
            Some(start) => {
                for _ in 0..start {
                    let request = self.pick();
                    self.sendq.push_back(request);
                }
            }
            None if self.inflight.is_empty() => {
                return match self.pace(now) {
                    Ok((server, op)) => self.send_udp(server, op, now),
                    Err(next) => next,
                };
            }
            None => {}
        }
        // Registry refresh rides the same pump: checked before request
        // sends so a deep send queue cannot starve endpoint discovery
        // during an outage.
        if let Some(d) = &self.cfg.discovery {
            let slo = &self.admission.slo;
            if let Some(lookup) = self.registry.lookup_due(now, slo.completed, slo.violations) {
                return Next::Send(d.control, lookup);
            }
        }
        if let Some((server, op)) = self.sendq.pop_front() {
            return self.send_udp(server, op, now);
        }
        self.rearm(now);
        let expiry = self.inflight.iter().map(|p| p.expires).min();
        let Some(deadline) = expiry.into_iter().chain(self.admission.next_arrival()).min() else {
            // Schedule exhausted, nothing in flight: finished. (The
            // registry refresh deliberately does not keep an
            // otherwise-finished client alive.)
            self.done = true;
            self.finished_at = now;
            return Next::Exit;
        };
        let deadline = self.registry.next_refresh().map_or(deadline, |r| deadline.min(r));
        // Everything due was processed above, so the deadline is strictly
        // in the future.
        Next::Wait(Some(deadline.duration_since(now)))
    }

    fn on_datagram(&mut self, _: SockAddr, msg: AppMessage, ctx: &mut ProcessCtx<'_>) -> Then {
        // Registry replies share the socket and their `id` is a service
        // id, so they are taken before the in-flight match. A reply to a
        // request already given up finds its slot reclaimed: it is stale.
        if !self.registry.on_reply(&msg) {
            match self.inflight.binary_search_by_key(&msg.id, |p| p.id) {
                Ok(i) => {
                    let p = self.inflight.remove(i);
                    self.record(p.server, p.sent_at, ctx.now);
                }
                Err(_) => self.rearm(ctx.now),
            }
        }
        if self.drains() {
            Then::ReadOn
        } else {
            Then::Pump
        }
    }
}

impl Process for McClient {
    fn step(&mut self, ctx: &mut ProcessCtx<'_>) -> Step {
        match self.cfg.proto {
            Proto::Udp => udp_loop::step(self, ctx),
            Proto::Tcp => self.step_tcp(ctx),
        }
    }

    fn visit_metrics(&self, _: &Shm, v: &mut dyn MetricsVisitor) {
        v.counter("requests_issued", self.issued);
        v.counter("requests_completed", self.completed);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        v.histogram("latency_ns", &self.latency);
        if self.cfg.arrival.is_some() {
            v.counter("open_loop.timed_out", self.timed_out);
        } else {
            v.counter("failures", self.failures);
            v.counter("udp_retries", self.udp_retries);
            for (class, h) in self.latency_by_class.iter().enumerate() {
                v.histogram(&format!("latency_ns_class{class}"), h);
            }
        }
        self.admission.visit(self.in_flight(), v);
        self.failure.visit(v);
        if self.cfg.discovery.is_some() {
            self.registry.visit_metrics(v);
        }
    }

    fn reset(&mut self) -> bool {
        // A node crash wipes the kernel's sockets and the requests in
        // flight with them — crash losses, not timeouts: a request may
        // never have been sent. A closed TCP loop loses the request it is
        // dialing, sending or awaiting; a UDP client, either loop, its
        // requests in the table or queued; none is lost between requests.
        // The schedule keeps its position: offered load resumes the moment
        // the node reboots. Results gathered so far survive.
        let lost = match self.state {
            CliState::Dial(..) | CliState::AwaitTcp(..) => 1,
            _ => self.in_flight(),
        };
        for _ in 0..lost {
            self.failure.on_crash_lost();
            self.admission.on_unanswered();
        }
        self.inflight.clear();
        self.sendq.clear();
        self.current_op = None;
        self.state = CliState::Start;
        self.io = UdpLoop::Start;
        self.pace = Pace::Delay;
        self.conns.clear();
        self.redial.attempts = 0;
        self.registry.reset();
        self.done = false;
        true
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

use diablo_engine::snap::SnapError;

diablo_engine::impl_snap_enum!(DispState {
    0 => Start,
    1 => Standby,
    2 => Listen(l),
    3 => UdpSocket(lfd),
    4 => UdpBind(lfd, fd),
    5 => RegisterUdp(lfd, fd, i),
    6 => Accept(lfd),
    7 => Accepting(lfd),
    8 => Assign(lfd, fd),
});

diablo_engine::impl_snap_enum!(WkState {
    0 => Start,
    1 => Publish,
    2 => Wait(ep),
    3 => Run(ep),
});

diablo_engine::impl_snap_enum!(Act {
    0 => RecvTcp(fd),
    1 => RecvUdp(fd),
    2 => Flush(fd),
    3 => Ctl(fd, mask),
    4 => SendUdp(fd, to, msg),
    5 => CloseConn(fd),
});

diablo_engine::impl_snap_struct!(ConnOut { outbox, write_registered });

diablo_engine::impl_snap_enum!(Io {
    0 => Tcp,
    1 => TcpEpoll(ep),
});

diablo_engine::impl_snap_enum!(CliState {
    0 => Start,
    1 => TcpEpoll,
    2 => Idle(io),
    3 => Dial(io, d),
    4 => AwaitTcp(io, fd),
});

diablo_engine::impl_snap_enum!(Pace { 0 => Delay, 1 => Think, 2 => Pick });

diablo_engine::impl_snap_struct!(Pending { id, server, op, sent_at, expires, retries });

// One slot per configured worker thread; a snapshot of another shape is
// rejected.
diablo_engine::impl_persist_fields!(McShared { worker_epfds: fixed_len, udp_fd });

diablo_engine::impl_persist_fields!(McDispatcher {
    state,
    next_worker,
    last_futex,
    accepted,
    shared: config,
    cfg: config,
});

diablo_engine::impl_persist_fields!(McWorker {
    state,
    conns,
    queue,
    inflight,
    store,
    served,
    index: config,
    cfg: config,
    shared: config,
});

// `cfg` is rebuilt from the experiment spec; the ETC workload persists
// only its RNG (its Zipf table is derived from the keyspace).
diablo_engine::impl_persist_fields!(McClient {
    rng,
    redial,
    workload: nested,
    admission,
    pace,
    state,
    io,
    conns,
    inflight,
    sendq,
    current_op,
    current_server,
    sent_at,
    issued,
    latency,
    latency_by_class,
    completed,
    udp_retries,
    failures,
    timed_out,
    failure,
    registry,
    done,
    finished_at,
    cfg: config,
} after_load = check_server_indices);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_state_starts_empty() {
        let mut g = McShared::new(4);
        assert_eq!(g.worker_epfds.len(), 4);
        assert!(g.worker_epfds.iter().all(Option::is_none));
        assert!(g.udp_fd.is_none());
        (g.worker_epfds[1], g.udp_fd) = (Some(Fd(3)), Some(Fd(4)));
        g.reboot();
        assert_eq!((g.worker_epfds, g.udp_fd), (vec![None; 4], None), "a reboot unpublishes");
    }

    #[test]
    fn versions_have_names() {
        assert_eq!(McVersion::V1_4_15.as_str(), "1.4.15");
        assert_eq!(McVersion::V1_4_17.as_str(), "1.4.17");
    }

    /// A crash loses a closed-loop request only while it is unanswered:
    /// not once its reply is in (or it was given up) and the client
    /// thinks before the next.
    #[test]
    fn a_crash_between_requests_loses_no_request() {
        let servers: Vec<SockAddr> = vec![SockAddr::new(NodeAddr(0), MEMCACHED_PORT)];
        let crash = |c: &mut McClient| {
            c.current_op = Some(c.pick().1);
            c.reset();
            std::mem::take(&mut c.failure.crash_lost)
        };
        let mut tcp = McClient::new(McClientConfig::tcp(servers.clone(), 10), DetRng::new(1));
        tcp.state = CliState::Idle(Io::Tcp);
        assert_eq!(crash(&mut tcp), 0, "thinking after a reply");
        tcp.state = CliState::AwaitTcp(Io::Tcp, Fd(3));
        assert_eq!(crash(&mut tcp), 1, "awaiting the reply");
        tcp.state = CliState::Dial(Io::Tcp, Dial::Socket);
        assert_eq!(crash(&mut tcp), 1, "redialing for the request");
        let mut udp = McClient::new(McClientConfig::udp(servers, 10), DetRng::new(1));
        assert_eq!(crash(&mut udp), 0, "thinking after a reply");
        let op = udp.pick().1;
        let _ = udp.send_udp(0, op, SimTime::ZERO);
        assert_eq!(crash(&mut udp), 1, "awaiting the reply");
    }

    /// A snapshot naming a server index the rebuilt list cannot hold is
    /// refused at load, not at the client's next request.
    #[test]
    fn a_restored_server_index_past_the_list_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        let client = |n: u32| {
            let servers: Vec<SockAddr> =
                (0..n).map(|i| SockAddr::new(NodeAddr(i), MEMCACHED_PORT)).collect();
            McClient::new(McClientConfig::udp(servers, 10), DetRng::new(1))
        };
        let mut four = client(4);
        four.current_server = 3;
        let mut w = SnapWriter::new();
        four.save_state(&mut w);
        let bytes = w.into_bytes();
        client(4).load_state(&mut SnapReader::new(&bytes)).expect("the same list restores");
        let err = client(2)
            .load_state(&mut SnapReader::new(&bytes))
            .expect_err("index 3 of a 2-server list is refused");
        assert!(err.to_string().contains("server index 3 of a client with 2"), "{err}");
    }

    /// A TCP client restored mid-dial aims at `current_server`: a dial
    /// past the rebuilt list is refused at load, not at its `connect`.
    #[test]
    fn a_restored_dial_past_the_list_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        let client = |n: u32| {
            let servers: Vec<SockAddr> =
                (0..n).map(|i| SockAddr::new(NodeAddr(i), MEMCACHED_PORT)).collect();
            McClient::new(McClientConfig::tcp(servers, 10), DetRng::new(1))
        };
        let mut four = client(4);
        four.current_server = 3;
        four.state = CliState::Dial(Io::TcpEpoll(Fd(2)), Dial::Connect(Fd(7)));
        let mut w = SnapWriter::new();
        four.save_state(&mut w);
        let bytes = w.into_bytes();
        client(4).load_state(&mut SnapReader::new(&bytes)).expect("the same list restores");
        let err = client(2)
            .load_state(&mut SnapReader::new(&bytes))
            .expect_err("a dial to server 3 of 2 is refused");
        assert!(err.to_string().contains("server index 3 of a client with 2"), "{err}");
    }

    /// A queued open-loop request naming a server the rebuilt list cannot
    /// hold is refused at load, not when the request is sent.
    #[test]
    fn a_restored_open_loop_request_past_the_list_is_an_error() {
        use diablo_engine::snap::{Persist, SnapReader, SnapWriter};
        let client = |n: u32| {
            let servers: Vec<SockAddr> =
                (0..n).map(|i| SockAddr::new(NodeAddr(i), MEMCACHED_PORT)).collect();
            let mut cfg = McClientConfig::udp(servers, 0);
            cfg.arrival = Some(ArrivalSpec::poisson(1_000.0, SimDuration::from_millis(5)).unwrap());
            McClient::new(cfg, DetRng::new(1))
        };
        let mut four = client(4);
        let op = four.workload.next_op();
        four.sendq.push_back((3, op));
        let mut w = SnapWriter::new();
        four.save_state(&mut w);
        let bytes = w.into_bytes();
        client(4).load_state(&mut SnapReader::new(&bytes)).expect("the same list restores");
        let err = client(2)
            .load_state(&mut SnapReader::new(&bytes))
            .expect_err("index 3 of a 2-server list is refused");
        assert!(err.to_string().contains("server index 3 of a client with 2"), "{err}");
    }

    #[test]
    fn client_config_builders() {
        let servers = vec![SockAddr::new(NodeAddr(1), MEMCACHED_PORT)];
        let t = McClientConfig::tcp(servers.clone(), 100);
        assert_eq!(t.proto, Proto::Tcp);
        let u = McClientConfig::udp(servers, 100);
        assert_eq!(u.proto, Proto::Udp);
        assert_eq!(u.requests, 100);
    }
}
