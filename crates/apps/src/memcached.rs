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
//! The client is a closed-loop load generator: each request picks a
//! uniformly random server (the paper's setup), sends a GET or SET drawn
//! from the ETC workload model, waits for the reply and records the
//! latency in HDR histograms — overall and per hop-class (Figure 10).

use crate::arrival::{ArrivalProcess, ArrivalSpec, SloStats};
use crate::control::{pick_live, DiscoveryConfig, RegistryClient, ServiceGate};
use crate::failure::{backoff_delay_jittered, FailureStats};
use crate::workload::{etc_value_size_for_key, EtcWorkload, KvOp};
use diablo_engine::metrics::MetricsVisitor;
use diablo_engine::prelude::Histogram;
use diablo_engine::rng::DetRng;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::addr::NodeAddr;
use diablo_net::payload::AppMessage;
use diablo_net::SockAddr;
use diablo_stack::process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall};
use diablo_stack::socket::EventMask;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

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

/// State shared between the dispatcher and workers of one server.
#[derive(Debug, Default)]
pub struct McShared {
    /// Worker epoll fds, published as workers start.
    pub worker_epfds: Vec<Option<Fd>>,
    /// The shared UDP socket, once created by the dispatcher.
    pub udp_fd: Option<Fd>,
    /// Requests served (all workers).
    pub served: u64,
}

/// Handle to a server's shared state.
pub type McSharedHandle = Arc<Mutex<McShared>>;

/// Creates shared state for `workers` worker threads.
pub fn mc_shared(workers: usize) -> McSharedHandle {
    Arc::new(Mutex::new(McShared { worker_epfds: vec![None; workers], udp_fd: None, served: 0 }))
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
/// Under the control plane a dispatcher can be *gated*
/// ([`McDispatcher::with_gate`]): a standby replica parks on a futex
/// until the co-located [`ControlAgent`](crate::control::ControlAgent)
/// activates its [`ServiceGate`], modeling cold-start warmup — the
/// replica boots its whole socket machinery (and its workers fill a cold
/// cache) only after placement.
#[derive(Debug)]
pub struct McDispatcher {
    cfg: McServerConfig,
    shared: McSharedHandle,
    state: DispState,
    listen_fd: Option<Fd>,
    udp_fd: Option<Fd>,
    next_worker: usize,
    udp_reg_idx: usize,
    pending_conn: Option<Fd>,
    /// Activation gate and its futex key (`None` = always serve).
    gate: Option<(ServiceGate, u64)>,
    /// Last futex eventcount observed while parked on the gate.
    last_futex: u64,
    /// Connections accepted.
    pub accepted: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispState {
    Start,
    Standby,
    TcpSocketed,
    TcpBound,
    TcpListening,
    UdpSocketed,
    UdpBound,
    RegisterUdp,
    WaitWorkers,
    Accepting,
    SetNb,
    Assign,
}

impl McDispatcher {
    /// Creates the dispatcher.
    pub fn new(cfg: McServerConfig, shared: McSharedHandle) -> Self {
        McDispatcher {
            cfg,
            shared,
            state: DispState::Start,
            listen_fd: None,
            udp_fd: None,
            next_worker: 0,
            udp_reg_idx: 0,
            pending_conn: None,
            gate: None,
            last_futex: 0,
            accepted: 0,
        }
    }

    /// Gates this dispatcher behind a control-plane activation flag: it
    /// parks on `futex_key` until the gate turns active.
    #[must_use]
    pub fn with_gate(mut self, gate: ServiceGate, futex_key: u64) -> Self {
        self.gate = Some((gate, futex_key));
        self
    }

    fn worker_epfd(&self, i: usize) -> Option<Fd> {
        self.shared.lock().expect("poisoned").worker_epfds[i]
    }

    fn all_workers_ready(&self) -> bool {
        self.shared.lock().expect("poisoned").worker_epfds.iter().all(|e| e.is_some())
    }
}

impl Process for McDispatcher {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                DispState::Start => {
                    if let Some((gate, key)) = &self.gate {
                        if !gate.lock().expect("gate poisoned").active {
                            // Standby: park until the control agent
                            // activates this replica and wakes the futex.
                            self.state = DispState::Standby;
                            return Step::Syscall(Syscall::FutexWait {
                                key: *key,
                                seen: self.last_futex,
                            });
                        }
                    }
                    self.state = DispState::TcpSocketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
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
                DispState::TcpSocketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.listen_fd = Some(fd);
                    self.state = DispState::TcpBound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.cfg.port });
                }
                DispState::TcpBound => {
                    assert_eq!(ctx.result, SysResult::Done, "bind failed");
                    self.state = DispState::TcpListening;
                    return Step::Syscall(Syscall::Listen {
                        fd: self.listen_fd.expect("no fd"),
                        backlog: 1024,
                    });
                }
                DispState::TcpListening => {
                    if self.cfg.udp {
                        self.state = DispState::UdpSocketed;
                        return Step::Syscall(Syscall::Socket(Proto::Udp));
                    }
                    self.state = DispState::WaitWorkers;
                    continue;
                }
                DispState::UdpSocketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.udp_fd = Some(fd);
                    self.state = DispState::UdpBound;
                    return Step::Syscall(Syscall::Bind { fd, port: self.cfg.port });
                }
                DispState::UdpBound => {
                    assert_eq!(ctx.result, SysResult::Done, "udp bind failed");
                    self.shared.lock().expect("poisoned").udp_fd = self.udp_fd;
                    self.state = DispState::WaitWorkers;
                    continue;
                }
                DispState::WaitWorkers => {
                    if !self.all_workers_ready() {
                        return Step::Syscall(Syscall::Nanosleep(SimDuration::from_micros(100)));
                    }
                    if self.cfg.udp && self.udp_reg_idx < self.cfg.workers {
                        self.state = DispState::RegisterUdp;
                        continue;
                    }
                    self.state = DispState::Accepting;
                    return Step::Syscall(Syscall::Accept {
                        fd: self.listen_fd.expect("no fd"),
                        accept4: self.cfg.version == McVersion::V1_4_17,
                    });
                }
                DispState::RegisterUdp => {
                    let i = self.udp_reg_idx;
                    self.udp_reg_idx += 1;
                    let epfd = self.worker_epfd(i).expect("worker not ready");
                    self.state = DispState::WaitWorkers;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd,
                        fd: self.udp_fd.expect("no udp fd"),
                        interest: EventMask::READ,
                    });
                }
                DispState::Accepting => {
                    let SysResult::Accepted { fd, .. } = ctx.result else {
                        panic!("accept failed: {:?}", ctx.result)
                    };
                    self.accepted += 1;
                    self.pending_conn = Some(fd);
                    if self.cfg.version == McVersion::V1_4_15 {
                        // Extra fcntl per connection.
                        self.state = DispState::SetNb;
                        return Step::Syscall(Syscall::SetNonblocking { fd, on: true });
                    }
                    self.state = DispState::Assign;
                    continue;
                }
                DispState::SetNb => {
                    self.state = DispState::Assign;
                    continue;
                }
                DispState::Assign => {
                    let fd = self.pending_conn.take().expect("no pending conn");
                    let w = self.next_worker % self.cfg.workers;
                    self.next_worker += 1;
                    let epfd = self.worker_epfd(w).expect("worker not ready");
                    // The EpollCtl is the "notify worker" step; afterwards
                    // loop back through WaitWorkers to the next accept.
                    self.state = DispState::WaitWorkers;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd,
                        fd,
                        interest: EventMask::READ,
                    });
                }
            }
        }
    }

    fn label(&self) -> &str {
        "memcached-dispatcher"
    }

    fn persist(&self) -> Option<&dyn Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("accepted", self.accepted);
        if let Some((gate, _)) = &self.gate {
            let active = gate.lock().expect("gate poisoned").active;
            v.gauge("service_active", if active { 1.0 } else { 0.0 });
        }
    }

    fn reset(&mut self) -> bool {
        // A crash wiped every socket; unpublish the shared fds so workers
        // and dispatcher renegotiate from scratch on reboot.
        let mut s = self.shared.lock().expect("poisoned");
        s.worker_epfds.iter_mut().for_each(|e| *e = None);
        s.udp_fd = None;
        drop(s);
        self.state = DispState::Start;
        self.listen_fd = None;
        self.udp_fd = None;
        self.next_worker = 0;
        self.udp_reg_idx = 0;
        self.pending_conn = None;
        // The crash wiped the kernel's futex table; its eventcount
        // restarts from zero, so the parked-on value must too.
        self.last_futex = 0;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
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
    shared: McSharedHandle,
    state: WkState,
    epfd: Option<Fd>,
    conns: HashMap<Fd, ConnOut>,
    queue: VecDeque<Act>,
    inflight: Option<Act>,
    store: HashMap<u64, u32>,
    /// Requests this worker served.
    pub served: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WkState {
    Start,
    Publish,
    Wait,
    Run,
}

impl McWorker {
    /// Creates worker `index`.
    pub fn new(index: usize, cfg: McServerConfig, shared: McSharedHandle) -> Self {
        McWorker {
            index,
            cfg,
            shared,
            state: WkState::Start,
            epfd: None,
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
        self.shared.lock().expect("poisoned").served += 1;
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

    fn udp_fd(&self) -> Option<Fd> {
        self.shared.lock().expect("poisoned").udp_fd
    }
}

impl Process for McWorker {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                WkState::Start => {
                    self.state = WkState::Publish;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                WkState::Publish => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.shared.lock().expect("poisoned").worker_epfds[self.index] = Some(ep);
                    self.state = WkState::Wait;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: ep,
                        max_events: 64,
                        timeout: None,
                    });
                }
                WkState::Wait => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            let udp = self.udp_fd();
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
                            self.state = WkState::Run;
                            continue;
                        }
                        other => panic!("epoll_wait failed: {other:?}"),
                    }
                }
                WkState::Run => {
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
                                epfd: self.epfd.expect("no epfd"),
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
                            self.state = WkState::Wait;
                            return Step::Syscall(Syscall::EpollWait {
                                epfd: self.epfd.expect("no epfd"),
                                max_events: 64,
                                timeout: None,
                            });
                        }
                    }
                }
            }
        }
    }

    fn label(&self) -> &str {
        "memcached-worker"
    }

    fn persist(&self) -> Option<&dyn Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("served", self.served);
    }

    fn reset(&mut self) -> bool {
        // The crash wiped the item table along with the sockets — a
        // rebooted cache comes back cold.
        self.shared.lock().expect("poisoned").worker_epfds[self.index] = None;
        self.state = WkState::Start;
        self.epfd = None;
        self.conns.clear();
        self.queue.clear();
        self.inflight = None;
        self.store.clear();
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// Client
// ====================================================================

/// Key space size of every client's workload.
const KEYSPACE: usize = 100_000;
/// UDP: how long a client waits for a reply before retrying.
const UDP_TIMEOUT: SimDuration = SimDuration::from_millis(250);
/// UDP: retries before a client counts a failure.
const UDP_MAX_RETRIES: u32 = 2;
/// TCP: consecutive connection failures tolerated per request before
/// the request is abandoned.
const TCP_MAX_RETRIES: u32 = 8;

/// Client configuration.
#[derive(Clone)]
pub struct McClientConfig {
    /// The memcached fleet. Shared (`Arc`) across all clients — at 64
    /// racks there are thousands of clients, and each used to clone the
    /// full `Vec`.
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
    /// TCP: per-request deadline. When set, the client waits for the reply
    /// through `epoll` and treats an expiry as a broken connection
    /// (reconnect + retry). `None` keeps the plain blocking receive.
    pub request_deadline: Option<SimDuration>,
    /// Maps a server node to a hop class index (0 = local, 1 = one-hop,
    /// 2 = two-hop) for Figure 10's breakdown.
    pub classify: Option<Arc<dyn Fn(NodeAddr) -> usize + Send + Sync>>,
    /// Open-loop mode: when set, requests are admitted on this arrival
    /// schedule independent of completion (see [`McOpenLoopClient`]) and
    /// `requests`/`think` are ignored. UDP only.
    pub arrival: Option<ArrivalSpec>,
    /// Open-loop mode: bound on simultaneously in-flight requests;
    /// admissions beyond it are recorded as load shed, never queued.
    pub window: usize,
    /// Open-loop mode: latency SLO target checked on every completion.
    pub slo: Option<SimDuration>,
    /// Open-loop mode: discover live endpoints through the control
    /// plane's registry instead of treating every entry of `servers` as
    /// live. The `servers` list becomes the fixed address *pool* the
    /// registry's liveness mask indexes into.
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

/// The closed-loop memcached client.
#[derive(Debug)]
pub struct McClient {
    cfg: McClientConfig,
    rng: DetRng,
    workload: EtcWorkload,
    state: CliState,
    /// TCP connections by server index, with per-connection use counts.
    conns: HashMap<usize, (Fd, u64)>,
    udp_fd: Option<Fd>,
    epfd: Option<Fd>,
    current_server: usize,
    current_op: Option<KvOp>,
    issued: u64,
    sent_at: SimTime,
    retries_left: u32,
    /// Request latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Latency by hop class: local / one-hop / two-hop.
    pub latency_by_class: [Histogram; 3],
    /// Requests completed.
    pub completed: u64,
    /// UDP retransmissions performed.
    pub udp_retries: u64,
    /// Requests abandoned after exhausting retries.
    pub failures: u64,
    /// TCP failure/recovery accounting.
    pub failure: FailureStats,
    /// Consecutive TCP failures of the in-flight request (backoff
    /// exponent).
    attempts: u32,
    /// Dedicated stream for reconnect-backoff jitter. Derived from the
    /// client's address-seeded rng, so a mass crash de-correlates into
    /// per-client retry instants instead of a synchronized storm.
    backoff_rng: DetRng,
    /// Finished cleanly.
    pub done: bool,
    /// When the last request completed.
    pub finished_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CliState {
    Start,
    UdpSocketed,
    UdpEpoll,
    UdpCtl,
    /// TCP with a request deadline: epoll instance created at startup.
    TcpEpoll,
    Think,
    PickAndConnect,
    CloseStale(usize),
    TcpSocketed,
    Connected,
    /// TCP with a request deadline: register the fresh connection.
    TcpCtl,
    SendReq,
    AwaitTcp,
    /// TCP with a request deadline: wait for readability (or expiry).
    AwaitTcpReady,
    /// A TCP connection broke: the socket was closed; retry or give up.
    TcpFailed,
    /// Sleep the backoff delay, then reconnect.
    TcpBackoff,
    UdpAwait,
    UdpRecv,
    Done,
}

impl McClient {
    /// Creates a client with a deterministic RNG stream.
    pub fn new(cfg: McClientConfig, rng: DetRng) -> Self {
        let workload = EtcWorkload::new(rng.derive(1), KEYSPACE);
        let backoff_rng = rng.derive(0xBACC0FF);
        McClient {
            workload,
            rng,
            backoff_rng,
            state: CliState::Start,
            conns: HashMap::new(),
            udp_fd: None,
            epfd: None,
            current_server: 0,
            current_op: None,
            issued: 0,
            sent_at: SimTime::ZERO,
            retries_left: 0,
            latency: Histogram::new(),
            latency_by_class: [Histogram::new(), Histogram::new(), Histogram::new()],
            completed: 0,
            udp_retries: 0,
            failures: 0,
            failure: FailureStats::default(),
            attempts: 0,
            done: false,
            finished_at: SimTime::ZERO,
            cfg,
        }
    }

    fn record(&mut self, now: SimTime) {
        let ns = now.saturating_duration_since(self.sent_at).as_nanos();
        self.latency.record(ns);
        if let Some(classify) = &self.cfg.classify {
            let class = classify(self.cfg.servers[self.current_server].node).min(2);
            self.latency_by_class[class].record(ns);
        }
        self.completed += 1;
    }

    fn request_msg(&self, now: SimTime) -> AppMessage {
        let op = self.current_op.expect("no op in flight");
        let kind = match op {
            KvOp::Get { .. } => KIND_GET,
            KvOp::Set { .. } => KIND_SET,
        };
        let mut m = AppMessage::new(kind, self.issued - 1, op.request_size(), now);
        m.arg0 = op.key();
        if let KvOp::Set { value_size, .. } = op {
            m.arg1 = value_size as u64;
        }
        m
    }

    /// Enters the TCP failure path: the current server's connection is
    /// retired and closed; [`CliState::TcpFailed`] decides between retry
    /// and give-up.
    fn tcp_fail(&mut self, now: SimTime) -> Step {
        self.failure.on_failure(now);
        self.attempts += 1;
        let (fd, _) = self.conns.remove(&self.current_server).expect("no conn to fail");
        self.state = CliState::TcpFailed;
        Step::Syscall(Syscall::Close { fd })
    }
}

impl Process for McClient {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                CliState::Start => {
                    if self.cfg.proto == Proto::Udp {
                        self.state = CliState::UdpSocketed;
                        return Step::Syscall(Syscall::Socket(Proto::Udp));
                    }
                    if self.cfg.request_deadline.is_some() {
                        self.state = CliState::TcpEpoll;
                        return Step::Syscall(Syscall::EpollCreate);
                    }
                    self.state = CliState::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Step::Syscall(Syscall::Nanosleep(self.cfg.start_delay));
                    }
                    continue;
                }
                CliState::TcpEpoll => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = CliState::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Step::Syscall(Syscall::Nanosleep(self.cfg.start_delay));
                    }
                    continue;
                }
                CliState::UdpSocketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.udp_fd = Some(fd);
                    self.state = CliState::UdpEpoll;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                CliState::UdpEpoll => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = CliState::UdpCtl;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.udp_fd.expect("no udp fd"),
                        interest: EventMask::READ,
                    });
                }
                CliState::UdpCtl => {
                    self.state = CliState::Think;
                    if !self.cfg.start_delay.is_zero() {
                        return Step::Syscall(Syscall::Nanosleep(self.cfg.start_delay));
                    }
                    continue;
                }
                CliState::Think => {
                    if self.issued >= self.cfg.requests {
                        self.state = CliState::Done;
                        continue;
                    }
                    self.state = CliState::PickAndConnect;
                    return Step::Compute(self.cfg.think);
                }
                CliState::PickAndConnect => {
                    self.current_server =
                        self.rng.next_below(self.cfg.servers.len() as u64) as usize;
                    self.current_op = Some(self.workload.next_op());
                    self.issued += 1;
                    self.retries_left = UDP_MAX_RETRIES;
                    if self.cfg.proto == Proto::Udp {
                        self.state = CliState::SendReq;
                        continue;
                    }
                    if let Some(&(fd, uses)) = self.conns.get(&self.current_server) {
                        if let Some(limit) = self.cfg.reconnect_every {
                            if uses >= limit {
                                self.conns.remove(&self.current_server);
                                self.state = CliState::CloseStale(self.current_server);
                                return Step::Syscall(Syscall::Close { fd });
                            }
                        }
                        self.state = CliState::SendReq;
                        continue;
                    }
                    self.state = CliState::TcpSocketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                CliState::CloseStale(_) => {
                    self.state = CliState::TcpSocketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                CliState::TcpSocketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.conns.insert(self.current_server, (fd, 0));
                    self.state = CliState::Connected;
                    return Step::Syscall(Syscall::Connect {
                        fd,
                        to: self.cfg.servers[self.current_server],
                    });
                }
                CliState::Connected => match ctx.result {
                    SysResult::Done => {
                        if self.attempts > 0 {
                            self.failure.reconnects += 1;
                            self.failure.retried += 1;
                        }
                        if self.cfg.request_deadline.is_some() {
                            self.state = CliState::TcpCtl;
                            let fd = self.conns[&self.current_server].0;
                            return Step::Syscall(Syscall::EpollCtl {
                                epfd: self.epfd.expect("no epfd"),
                                fd,
                                interest: EventMask::READ,
                            });
                        }
                        self.state = CliState::SendReq;
                        continue;
                    }
                    SysResult::Err(_) => return self.tcp_fail(ctx.now),
                    ref other => panic!("connect failed: {other:?}"),
                },
                CliState::TcpCtl => {
                    self.state = CliState::SendReq;
                    continue;
                }
                CliState::SendReq => {
                    self.sent_at = ctx.now;
                    let msg = self.request_msg(ctx.now);
                    if self.cfg.proto == Proto::Udp {
                        self.state = CliState::UdpAwait;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.udp_fd.expect("no udp fd"),
                            to: self.cfg.servers[self.current_server],
                            msg,
                        });
                    }
                    self.state = CliState::AwaitTcp;
                    let entry = self.conns.get_mut(&self.current_server).expect("no conn");
                    entry.1 += 1;
                    let fd = entry.0;
                    return Step::Syscall(Syscall::Send { fd, msg });
                }
                CliState::AwaitTcp => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Done => {
                            // Send completed; wait for the reply.
                            if let Some(deadline) = self.cfg.request_deadline {
                                self.state = CliState::AwaitTcpReady;
                                return Step::Syscall(Syscall::EpollWait {
                                    epfd: self.epfd.expect("no epfd"),
                                    max_events: 4,
                                    timeout: Some(deadline),
                                });
                            }
                            let fd = self.conns[&self.current_server].0;
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 1 });
                        }
                        SysResult::Messages { msgs, eof } => {
                            if msgs.is_empty() {
                                // EOF before the reply: the server went away.
                                debug_assert!(eof);
                                return self.tcp_fail(ctx.now);
                            }
                            assert_eq!(msgs.len(), 1);
                            assert_eq!(msgs[0].id, self.issued - 1, "reply id mismatch");
                            self.failure.on_success(ctx.now);
                            self.attempts = 0;
                            self.record(ctx.now);
                            self.state = CliState::Think;
                            continue;
                        }
                        // Send or receive hit a transport error (connection
                        // reset, retransmission timeout): reconnect.
                        SysResult::Err(_) => return self.tcp_fail(ctx.now),
                        other => panic!("tcp request failed: {other:?}"),
                    }
                }
                CliState::AwaitTcpReady => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            if evs.is_empty() {
                                // Deadline expired without a reply.
                                return self.tcp_fail(ctx.now);
                            }
                            // Data (or EOF) on the current connection —
                            // failed connections are always closed, which
                            // drops their epoll registrations, so only the
                            // in-flight fd can trigger here.
                            let fd = self.conns[&self.current_server].0;
                            self.state = CliState::AwaitTcp;
                            return Step::Syscall(Syscall::Recv { fd, max_msgs: 1 });
                        }
                        other => panic!("epoll_wait failed: {other:?}"),
                    }
                }
                CliState::TcpFailed => {
                    // Close result consumed; retry with backoff or abandon
                    // the request.
                    if self.attempts > TCP_MAX_RETRIES {
                        self.failures += 1;
                        self.failure.on_give_up();
                        self.attempts = 0;
                        self.record(ctx.now);
                        self.state = CliState::Think;
                        continue;
                    }
                    self.state = CliState::TcpBackoff;
                    return Step::Syscall(Syscall::Nanosleep(backoff_delay_jittered(
                        self.attempts.saturating_sub(1),
                        &mut self.backoff_rng,
                    )));
                }
                CliState::TcpBackoff => {
                    self.state = CliState::TcpSocketed;
                    return Step::Syscall(Syscall::Socket(Proto::Tcp));
                }
                CliState::UdpAwait => {
                    // SendTo completed; wait for readability with timeout.
                    self.state = CliState::UdpRecv;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 4,
                        timeout: Some(UDP_TIMEOUT),
                    });
                }
                CliState::UdpRecv => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Events(evs) => {
                            if evs.is_empty() {
                                // Timeout: retry or give up.
                                if self.retries_left > 0 {
                                    self.retries_left -= 1;
                                    self.udp_retries += 1;
                                    let msg = self.request_msg(ctx.now);
                                    self.state = CliState::UdpAwait;
                                    return Step::Syscall(Syscall::SendTo {
                                        fd: self.udp_fd.expect("no udp fd"),
                                        to: self.cfg.servers[self.current_server],
                                        msg,
                                    });
                                }
                                self.failures += 1;
                                self.record(ctx.now);
                                self.state = CliState::Think;
                                continue;
                            }
                            return Step::Syscall(Syscall::RecvFrom {
                                fd: self.udp_fd.expect("no udp fd"),
                            });
                        }
                        SysResult::Datagram { msg, .. } => {
                            if msg.id != self.issued - 1 {
                                // Stale reply from an earlier retry; wait on.
                                self.state = CliState::UdpAwait;
                                continue;
                            }
                            self.record(ctx.now);
                            self.state = CliState::Think;
                            continue;
                        }
                        SysResult::Err(Errno::WouldBlock) => {
                            self.state = CliState::UdpAwait;
                            continue;
                        }
                        other => panic!("udp request failed: {other:?}"),
                    }
                }
                CliState::Done => {
                    self.done = true;
                    self.finished_at = ctx.now;
                    return Step::Exit;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "memcached-client"
    }

    fn persist(&self) -> Option<&dyn Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("requests_issued", self.issued);
        v.counter("requests_completed", self.completed);
        v.counter("failures", self.failures);
        v.counter("udp_retries", self.udp_retries);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        v.histogram("latency_ns", &self.latency);
        for (class, h) in self.latency_by_class.iter().enumerate() {
            v.histogram(&format!("latency_ns_class{class}"), h);
        }
        self.failure.visit(v);
    }

    fn reset(&mut self) -> bool {
        // A node crash wipes the kernel's sockets; the in-flight request
        // (if any) is lost — it may never have been sent, so it is
        // crash-lost, not timed-out. Results gathered so far survive.
        if self.current_op.is_some() {
            self.failure.on_crash_lost();
        }
        self.state = CliState::Start;
        self.conns.clear();
        self.udp_fd = None;
        self.epfd = None;
        self.current_op = None;
        self.attempts = 0;
        self.done = false;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// Open-loop client
// ====================================================================

/// A request the open-loop client has sent and not yet seen answered.
#[derive(Debug, Clone, Copy)]
struct OlInflight {
    sent_at: SimTime,
    expires: SimTime,
}

/// The open-loop memcached client (UDP).
///
/// Where [`McClient`] is closed-loop — one request in flight, the next
/// issued only after the previous completes — this client admits requests
/// on an [`ArrivalProcess`] schedule *independent of completion*, the
/// load-generation discipline required to reach the overload and
/// queue-growth regimes the paper studies. Up to `cfg.window` requests
/// ride in flight simultaneously over one UDP socket (replies are matched
/// by request id); an admission that finds the window full is recorded as
/// load shed in [`McOpenLoopClient::slo`] rather than silently delayed,
/// so offered load is never quietly re-coupled to completion.
///
/// Arrival instants are realized as ordinary deterministic kernel timers:
/// the client sleeps in `epoll_wait` with a timeout of exactly
/// `min(next admission, earliest expiry) - now`, so serial and
/// partition-parallel runs replay the same schedule bit-identically.
/// A request unanswered for `cfg.request_deadline` (default:
/// `UDP_TIMEOUT`) expires — freeing its window slot and counting an
/// SLO violation — which is what lets the client keep offering load while
/// a saturated server digs out of its backlog.
#[derive(Debug)]
pub struct McOpenLoopClient {
    cfg: McClientConfig,
    rng: DetRng,
    workload: EtcWorkload,
    arrivals: ArrivalProcess,
    state: OlState,
    udp_fd: Option<Fd>,
    epfd: Option<Fd>,
    next_arrival: Option<SimTime>,
    /// In-flight requests by id (`BTreeMap` for deterministic iteration).
    inflight: BTreeMap<u64, OlInflight>,
    /// Admitted requests waiting for their `SendTo` turn (they already
    /// occupy a window slot).
    sendq: VecDeque<(usize, KvOp)>,
    /// Admissions the schedule produced (sent + shed).
    pub offered: u64,
    /// Requests actually sent.
    pub issued: u64,
    /// Requests completed with a matching reply.
    pub completed: u64,
    /// Requests that expired unanswered.
    pub timed_out: u64,
    /// Latency of completed requests (nanoseconds).
    pub latency: Histogram,
    /// SLO accounting: violations, shed, completions.
    pub slo: SloStats,
    /// Crash-loss accounting (requests wiped by a node reset).
    pub failure: FailureStats,
    /// Registry discovery (discovery mode; all requests route to the
    /// live replicas of its mask).
    pub registry: RegistryClient,
    /// Finished: schedule exhausted and no request left in flight.
    pub done: bool,
    /// When the client finished.
    pub finished_at: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OlState {
    Start,
    Socketed,
    EpollMade,
    Ctled,
    /// `SetNonblocking` on the UDP socket is in flight.
    NonBlocked,
    /// Central dispatch: expire, admit, send, or wait.
    Pump,
    /// A `SendTo` is in flight.
    SendDone,
    /// Parked in `epoll_wait` until data, the next admission, or the
    /// earliest expiry.
    Waiting,
    /// Draining readable datagrams.
    Recv,
    Done,
}

impl McOpenLoopClient {
    /// Creates an open-loop client; `cfg.arrival` must be set and
    /// `cfg.proto` must be [`Proto::Udp`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.arrival` is `None`, `cfg.proto` is not UDP, or
    /// `cfg.window` is zero.
    pub fn new(cfg: McClientConfig, rng: DetRng) -> Self {
        let spec = cfg.arrival.clone().expect("open-loop client requires an arrival spec");
        assert_eq!(cfg.proto, Proto::Udp, "open-loop memcached requires UDP");
        assert!(cfg.window > 0, "open-loop window must be positive");
        let workload = EtcWorkload::new(rng.derive(1), KEYSPACE);
        let mut arrivals = ArrivalProcess::new(spec, rng.derive(2));
        let next_arrival = arrivals.next_arrival();
        McOpenLoopClient {
            workload,
            rng,
            arrivals,
            state: OlState::Start,
            udp_fd: None,
            epfd: None,
            next_arrival,
            inflight: BTreeMap::new(),
            sendq: VecDeque::new(),
            offered: 0,
            issued: 0,
            completed: 0,
            timed_out: 0,
            latency: Histogram::new(),
            slo: SloStats::with_target(cfg.slo),
            failure: FailureStats::default(),
            registry: RegistryClient::new(cfg.discovery.as_ref()),
            done: false,
            finished_at: SimTime::ZERO,
            cfg,
        }
    }

    /// Requests currently occupying window slots.
    fn in_flight(&self) -> usize {
        self.inflight.len() + self.sendq.len()
    }

    /// Per-request expiry budget.
    fn expiry(&self) -> SimDuration {
        self.cfg.request_deadline.unwrap_or(UDP_TIMEOUT)
    }

    /// Expires overdue requests and admits every arrival due by `now`.
    fn expire_and_admit(&mut self, now: SimTime) {
        let due: Vec<u64> =
            self.inflight.iter().filter(|(_, r)| r.expires <= now).map(|(id, _)| *id).collect();
        for id in due {
            self.inflight.remove(&id);
            self.timed_out += 1;
            self.slo.on_unanswered();
        }
        while let Some(at) = self.next_arrival {
            if at > now {
                break;
            }
            self.offered += 1;
            if self.in_flight() < self.cfg.window {
                // With discovery, route to a live replica from the
                // registry mask; with every replica down, fall back to a
                // blind pool pick (it will time out — exactly the
                // outage the SLO accounting should see). Either path
                // draws exactly one value, keeping the stream replayable.
                let server = if self.cfg.discovery.is_some() {
                    pick_live(self.registry.live_mask(), self.cfg.servers.len(), &mut self.rng)
                        .unwrap_or_else(|| {
                            self.rng.next_below(self.cfg.servers.len() as u64) as usize
                        })
                } else {
                    self.rng.next_below(self.cfg.servers.len() as u64) as usize
                };
                let op = self.workload.next_op();
                self.sendq.push_back((server, op));
            } else {
                self.slo.on_shed();
            }
            self.next_arrival = self.arrivals.next_arrival();
        }
    }

    /// The next instant the client must wake at, if any.
    fn next_deadline(&self) -> Option<SimTime> {
        let expiry = self.inflight.values().map(|r| r.expires).min();
        match (self.next_arrival, expiry) {
            (Some(a), Some(e)) => Some(a.min(e)),
            (a, e) => a.or(e),
        }
    }

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
}

impl Process for McOpenLoopClient {
    fn step(&mut self, ctx: &mut ProcessCtx) -> Step {
        loop {
            match self.state {
                OlState::Start => {
                    self.state = OlState::Socketed;
                    return Step::Syscall(Syscall::Socket(Proto::Udp));
                }
                OlState::Socketed => {
                    let SysResult::NewFd(fd) = ctx.result else { panic!("socket failed") };
                    self.udp_fd = Some(fd);
                    self.state = OlState::EpollMade;
                    return Step::Syscall(Syscall::EpollCreate);
                }
                OlState::EpollMade => {
                    let SysResult::NewFd(ep) = ctx.result else { panic!("epoll failed") };
                    self.epfd = Some(ep);
                    self.state = OlState::Ctled;
                    return Step::Syscall(Syscall::EpollCtl {
                        epfd: ep,
                        fd: self.udp_fd.expect("no udp fd"),
                        interest: EventMask::READ,
                    });
                }
                OlState::Ctled => {
                    // Multiple replies can land between wakeups; the drain
                    // loop needs `EWOULDBLOCK` (not a blocked `recvfrom`)
                    // to know when the queue is empty.
                    self.state = OlState::NonBlocked;
                    return Step::Syscall(Syscall::SetNonblocking {
                        fd: self.udp_fd.expect("no udp fd"),
                        on: true,
                    });
                }
                OlState::NonBlocked => {
                    self.state = OlState::Pump;
                    continue;
                }
                OlState::Pump => {
                    self.expire_and_admit(ctx.now);
                    // Registry refresh rides the same pump: checked before
                    // request sends so a deep send queue cannot starve
                    // endpoint discovery during an outage.
                    if let Some(d) = &self.cfg.discovery {
                        let slo = &self.slo;
                        if let Some(lookup) =
                            self.registry.lookup_due(d, ctx.now, slo.completed, slo.violations)
                        {
                            self.state = OlState::SendDone;
                            return Step::Syscall(Syscall::SendTo {
                                fd: self.udp_fd.expect("no udp fd"),
                                to: d.control,
                                msg: lookup,
                            });
                        }
                    }
                    if let Some((server, op)) = self.sendq.pop_front() {
                        self.issued += 1;
                        let id = self.issued - 1;
                        self.inflight.insert(
                            id,
                            OlInflight { sent_at: ctx.now, expires: ctx.now + self.expiry() },
                        );
                        self.state = OlState::SendDone;
                        return Step::Syscall(Syscall::SendTo {
                            fd: self.udp_fd.expect("no udp fd"),
                            to: self.cfg.servers[server],
                            msg: Self::request_msg(op, id, ctx.now),
                        });
                    }
                    let Some(mut deadline) = self.next_deadline() else {
                        // Schedule exhausted, nothing in flight: finished.
                        // (The registry refresh deliberately does not keep
                        // an otherwise-finished client alive.)
                        self.state = OlState::Done;
                        continue;
                    };
                    if let Some(refresh) = self.registry.next_refresh() {
                        deadline = deadline.min(refresh);
                    }
                    // Everything due was processed above, so the deadline
                    // is strictly in the future.
                    self.state = OlState::Waiting;
                    return Step::Syscall(Syscall::EpollWait {
                        epfd: self.epfd.expect("no epfd"),
                        max_events: 16,
                        timeout: Some(deadline.duration_since(ctx.now)),
                    });
                }
                OlState::SendDone => {
                    // SendTo completed (UDP send never blocks).
                    self.state = OlState::Pump;
                    continue;
                }
                OlState::Waiting => {
                    let SysResult::Events(ref evs) = ctx.result else {
                        panic!("epoll_wait failed")
                    };
                    if evs.is_empty() {
                        // Timer wakeup: an admission or expiry is due.
                        self.state = OlState::Pump;
                        continue;
                    }
                    self.state = OlState::Recv;
                    return Step::Syscall(Syscall::RecvFrom {
                        fd: self.udp_fd.expect("no udp fd"),
                    });
                }
                OlState::Recv => {
                    match std::mem::replace(&mut ctx.result, SysResult::Computed) {
                        SysResult::Datagram { msg, .. } => {
                            // Registry replies share the socket and their
                            // `id` is a service id, so they are taken
                            // before the in-flight match. A reply to an
                            // already-expired request finds its slot
                            // reclaimed and is dropped.
                            if !self.registry.on_reply(&msg) {
                                if let Some(req) = self.inflight.remove(&msg.id) {
                                    let ns = ctx.now.saturating_duration_since(req.sent_at);
                                    self.latency.record(ns.as_nanos());
                                    self.completed += 1;
                                    self.slo.on_complete(ns);
                                }
                            }
                            return Step::Syscall(Syscall::RecvFrom {
                                fd: self.udp_fd.expect("no udp fd"),
                            });
                        }
                        SysResult::Err(Errno::WouldBlock) => {
                            self.state = OlState::Pump;
                            continue;
                        }
                        other => panic!("udp recv failed: {other:?}"),
                    }
                }
                OlState::Done => {
                    self.done = true;
                    self.finished_at = ctx.now;
                    return Step::Exit;
                }
            }
        }
    }

    fn label(&self) -> &str {
        "memcached-openloop-client"
    }

    fn persist(&self) -> Option<&dyn Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn Persist> {
        Some(self)
    }

    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("open_loop.offered", self.offered);
        v.counter("requests_issued", self.issued);
        v.counter("requests_completed", self.completed);
        v.counter("open_loop.timed_out", self.timed_out);
        v.gauge("open_loop.in_flight", self.in_flight() as f64);
        v.gauge("done", if self.done { 1.0 } else { 0.0 });
        v.histogram("latency_ns", &self.latency);
        self.slo.visit(v);
        self.failure.visit(v);
        if self.cfg.discovery.is_some() {
            self.registry.visit_metrics(v);
        }
    }

    fn reset(&mut self) -> bool {
        // A crash wipes the socket and every in-flight request with it —
        // crash losses, not timeouts. The arrival schedule keeps its
        // position: offered load resumes the moment the node reboots.
        for _ in 0..self.in_flight() {
            self.failure.on_crash_lost();
            self.slo.on_unanswered();
        }
        self.inflight.clear();
        self.sendq.clear();
        self.state = OlState::Start;
        self.udp_fd = None;
        self.epfd = None;
        self.registry.reset();
        self.done = false;
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ====================================================================
// Snapshot layer
// ====================================================================

use diablo_engine::snap::Persist;

diablo_engine::impl_snap_enum!(DispState {
    0 => Start,
    1 => Standby,
    2 => TcpSocketed,
    3 => TcpBound,
    4 => TcpListening,
    5 => UdpSocketed,
    6 => UdpBound,
    7 => RegisterUdp,
    8 => WaitWorkers,
    9 => Accepting,
    10 => SetNb,
    11 => Assign,
});

diablo_engine::impl_snap_enum!(WkState {
    0 => Start,
    1 => Publish,
    2 => Wait,
    3 => Run,
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

diablo_engine::impl_snap_enum!(CliState {
    0 => Start,
    1 => UdpSocketed,
    2 => UdpEpoll,
    3 => UdpCtl,
    4 => TcpEpoll,
    5 => Think,
    6 => PickAndConnect,
    7 => CloseStale(i),
    8 => TcpSocketed,
    9 => Connected,
    10 => TcpCtl,
    11 => SendReq,
    12 => AwaitTcp,
    13 => AwaitTcpReady,
    14 => TcpFailed,
    15 => TcpBackoff,
    16 => UdpAwait,
    17 => UdpRecv,
    18 => Done,
});

diablo_engine::impl_snap_enum!(OlState {
    0 => Start,
    1 => Socketed,
    2 => EpollMade,
    3 => Ctled,
    4 => NonBlocked,
    5 => Pump,
    6 => SendDone,
    7 => Waiting,
    8 => Recv,
    9 => Done,
});

diablo_engine::impl_snap_struct!(OlInflight { sent_at, expires });

// One slot per configured worker thread; a snapshot of another shape is
// rejected.
diablo_engine::impl_persist_fields!(McShared { worker_epfds: fixed_len, udp_fd, served });

// The dispatcher is the single owner of the node's `McShared` block in
// snapshots: workers read it back through the same `Arc` on restore,
// so only one process may serialize it or the blob would be applied
// twice. The activation gate is owned (and persisted) by the node's
// `ControlAgent`.
diablo_engine::impl_persist_fields!(McDispatcher {
    state,
    listen_fd,
    udp_fd,
    next_worker,
    udp_reg_idx,
    pending_conn,
    last_futex,
    accepted,
    shared: nested,
    cfg: config,
    gate: config,
});

diablo_engine::impl_persist_fields!(McWorker {
    state,
    epfd,
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
    backoff_rng,
    workload: nested,
    state,
    conns,
    udp_fd,
    epfd,
    current_server,
    current_op,
    issued,
    sent_at,
    retries_left,
    latency,
    latency_by_class,
    completed,
    udp_retries,
    failures,
    failure,
    attempts,
    done,
    finished_at,
    cfg: config,
});

diablo_engine::impl_persist_fields!(McOpenLoopClient {
    rng,
    workload: nested,
    arrivals,
    state,
    udp_fd,
    epfd,
    next_arrival,
    inflight,
    sendq,
    offered,
    issued,
    completed,
    timed_out,
    latency,
    slo,
    failure,
    registry,
    done,
    finished_at,
    cfg: config,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_state_starts_empty() {
        let s = mc_shared(4);
        let g = s.lock().unwrap();
        assert_eq!(g.worker_epfds.len(), 4);
        assert!(g.worker_epfds.iter().all(Option::is_none));
        assert!(g.udp_fd.is_none());
    }

    #[test]
    fn versions_have_names() {
        assert_eq!(McVersion::V1_4_15.as_str(), "1.4.15");
        assert_eq!(McVersion::V1_4_17.as_str(), "1.4.17");
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
