//! Pins the snapshot byte format itself.
//!
//! The save-vs-restore golden tests (`determinism.rs`) prove a snapshot
//! restores to the same future; they cannot see a format change that the
//! writer and the reader make together. These digests can: each is the
//! FNV-1a of a mid-run snapshot of a fixed mini scenario, recorded at
//! `SNAP_VERSION` 16 (a node kernel persists its CPU's fields, then its
//! socket layer's: the entry-point time moves from after the wake-one
//! cursor to after the CPU's pending-softirq flag, and the cursor and the
//! dead connections' TCP counters to after the loopback queue, so every
//! snapshot keeps its length and all five digests move; version 15: a
//! node kernel keeps one TCP port table, each bound
//! port with the socket that owns it, 2-byte port and 4-byte socket, in
//! place of a listener table of the same entries and a set of used
//! ports, 2 bytes each: one 8-byte length less per node, 2 bytes less per
//! listening port and 4 more per port a connection took; a thread keeps
//! one wait deadline, where it kept its epoll timeout and an optional
//! sleep deadline, 1 byte less while it does not sleep. The closed-loop
//! memcached snapshot is 40 bytes smaller (12 nodes −96, 20 threads −20,
//! 2 listening ports −4, 20 client ports +80), the controlled one 132 (12
//! nodes, 32 threads, 2 listening ports), the partition-aggregate one
//! 144 (16 nodes, 16 threads), the epoll incast one 117 (16 nodes −128,
//! 13 threads −13, 12 listening ports −24, 12 client ports +48) and the
//! pthread incast one 73 (9 nodes −72, 17 threads −17, 8 listening ports
//! −16, 8 client ports +32); version 14: the two incast clients share one block record and
//! one fragment fetch: the master persists its block — iteration times,
//! done flag, iterations begun, start instant — where it held the same
//! fields in another order, and its state tags shift down one with its
//! connect wait gone, 0 bytes; a worker loses its 8-byte iteration count,
//! which it reads from the barrier, and the barrier gains it, 8 bytes; the
//! epoll client keeps one table of descriptor and byte-count pairs where
//! it kept two vectors, 8 bytes smaller, its ready queue names connection
//! indices, 8 bytes each where a descriptor was 4, and its drain state
//! carries the index of the connection whose `recv` is in flight, 8 bytes
//! more. The pthread incast snapshot, first recorded at
//! version 13 as 20,044 bytes (`d9191fa46cf95405`), is 56 bytes smaller
//! (8 workers −64, the barrier +8), the epoll incast one 8 (no readiness
//! queued and no `recv` in flight at its instant), and the three others
//! differ in the version word only; version 13: one memcached client
//! serves both loops: it persists
//! its admission rule — a 1-byte absent or present schedule, the 8-byte
//! offered count and the 25-byte SLO block the open-loop client held —
//! its 8-byte closed-loop pace, UDP loop phase, in-flight table length,
//! send queue length and timed-out count, and the registry client's 49
//! bytes, and loses its 4-byte retry budget, which a request in the table
//! holds: a closed-loop client is 119 bytes larger, an open-loop one 250
//! (it gains the TCP fields and the per-class histograms), and each
//! request in flight 32 or 36 (its server, operation and retries); an
//! epoll instance's waiters no longer keep a thread whose wait timed out,
//! 4 bytes each. The closed-loop memcached snapshot is 1,190 bytes larger
//! (10 clients), the controlled one 622 (7 clients +1,846, 306 stale
//! waiters −1,224), and the partition-aggregate and incast ones differ in
//! the version word only, their admission rule's bytes unchanged;
//! version 12: the TCP guests keep their descriptors in their
//! states: a listening socket, a connection or an epoll instance is 4
//! bytes of variant data where it was a 1-byte flag and 4 bytes in an
//! optional field, and a field that held one while unset goes. An incast
//! server and a memcached worker are 1 byte smaller; a memcached
//! dispatcher at its `accept` 11 bytes smaller without UDP and 15 with
//! it, a parked one 11 (its UDP registration index and pending
//! connection go too); the epoll incast client 9 (its connect index
//! goes); a closed-loop memcached client carries its transport's
//! descriptors, an 8-byte tag and 0 to 8 bytes, and its connection in
//! flight in its state in place of two optional descriptors, 10 bytes
//! more mid-request; a dialing guest's attempts and jitter stream become
//! one redial state of the same bytes. The closed-loop memcached
//! snapshot is 70 bytes larger (10 clients +100, 2 dispatchers −22, 8
//! workers −8), the controlled one 68 smaller (2 dispatchers at `accept`
//! −30, 2 parked −22, 16 workers −16), the incast one 21 smaller (12
//! servers −12, the client −9), and the partition-aggregate one differs
//! in the version word only; version 11: each NIC persists the instants its frames started
//! ahead of their turn leave the TX ring, 8 bytes of length plus 8 per
//! instant, each kernel thread an optional sleep deadline, 1 byte while
//! it does not sleep, and the CPU's work may be a planned softirq run,
//! which no checkpoint holds: the closed-loop memcached snapshot, 12
//! nodes and 20 threads, is 116 bytes larger, the controlled one, 12 and
//! 32, 128, the partition-aggregate one, 16 and 16 with 4 instants held,
//! 176, and the incast one, 16 and 13 with 22 instants held, 317; none
//! holds a sleeping thread, and none queued an RX interrupt or TX
//! completion the change removes; version 10: the scheduler, each control agent, each
//! partition-aggregate leaf and front-end and each open-loop memcached
//! client persist one UDP loop phase — an 8-byte tag, then the socket and
//! epoll descriptors, 4 bytes each, once set up — in place of an 8-byte
//! setup/drain state tag and two optional descriptors; an agent's next
//! heartbeat becomes optional and its 1-byte started flag goes; a leaf's
//! staged reply moves into its state, which gains the work left to
//! compute; an arrival process persists its optional next instant, which
//! an open-loop client and the epoll incast client no longer hold: the
//! closed-loop memcached snapshot differs in the version word only, the
//! controlled one is 24 bytes smaller (7 open-loop clients, 4 agents and
//! the scheduler, 2 bytes each), the partition-aggregate one 80 bytes
//! larger (16 leaves and front-ends, 5 bytes each, none holding a reply),
//! and the incast one 1 byte smaller; the control agent's and the
//! open-loop client's `epoll_wait` returns 64 events at most, not 16, which
//! a blocked wait's arguments carry into the kernel's snapshot; version 9:
//! a node kernel persists the memory its threads share
//! after its futexes, 8 bytes of table length per node plus its blocks; a
//! process blob loses its 1-byte presence flag; a shared block moves from
//! the one process that persisted it into its kernel, and memcached's
//! block drops its 8-byte copy of the served count; a control agent loses
//! its gate's 1-byte presence flag, its gate moving to the kernel: the
//! closed-loop memcached snapshot, 12 nodes, 20 processes, 2 servers, is
//! 60 bytes larger, the controlled one, 12 nodes, 32 processes, 4 servers
//! and 4 gates, 28, the partition-aggregate one, 16 nodes and 16
//! processes, 112, and the incast one, 16 nodes and 13 processes, 115;
//! version 8's control-plane scheduler held its one service's state
//! without a service table and its pending commands named no service,
//! and each control agent persisted an optional gate in place of a map
//! keyed by service: the controlled memcached snapshot was 52 bytes
//! smaller, the other three differed from version 7's in the version word
//! only; version 7's executor head lost its stop flag; a node kernel
//! persists its CPU completion's deadline and live timer in place of a
//! 4-byte generation, and each TCP socket the same pair for its RTO and
//! its delayed ACK, while the connection keeps an optional deadline for
//! each in place of an 8-byte generation and an armed flag: a connection
//! with neither armed is 16 bytes smaller, a re-armed RTO leaves no timer
//! queued; version 6 gave each kernel thread its epoll deadline and live
//! epoll timer in place of a 4-byte wait generation, 2 bytes less per idle
//! thread, and a wait that ended early left no timer queued; version 5 made each node kernel persist the
//! generation of its CPU completion timer and a count of stale timers, 12
//! bytes more per node, and let the CPU hold a thread's deferred exit;
//! version 4 gave each switch (in place of its fault fences) and each
//! node kernel its schedule of fault directives, empty here, so every one
//! grew the 8 bytes of a length, a pending fault timer lost its
//! directive, and a TCP connection's parameters lost the one-byte
//! `nodelay` flag;
//! version 3 made a switch pipeline entry's forwarding
//! timer optional and a NIC's TX busy flag its free instant plus an armed
//! flag, version 2 made the pipeline a FIFO beside a list of frames
//! committed at admission and the fault fences the switch was told of,
//! its per-output totals recomputed on load, version 1's digests dated from the
//! hand-written codec). A
//! digest that moves means snapshots written by earlier builds no longer
//! restore — bump `SNAP_VERSION` and re-record, or fix the encoding.

use diablo_core::{
    warm, ArrivalSpec, ControlConfig, IncastClientKind, IncastConfig, McExperimentConfig,
    PaExperimentConfig, SwitchTemplate,
};
use diablo_engine::prelude::SimDuration;
use diablo_engine::time::SimTime;
use diablo_net::switch::BufferConfig;
use diablo_net::topology::FatTreeConfig;
use diablo_stack::process::Proto;
use diablo_stack::profile::CongestionControl;
use std::path::Path;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// Warms one scenario to its checkpoint instant and returns the
/// snapshot's length and digest.
fn snapshot_digest(name: &str, warm: impl FnOnce(&Path)) -> (usize, String) {
    let dir = std::env::temp_dir().join("diablo_snapshot_golden");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{name}.snap"));
    warm(&path);
    let bytes = std::fs::read(&path).expect("snapshot written");
    (bytes.len(), format!("{:016x}", fnv1a(&bytes)))
}

#[test]
fn memcached_closed_loop_tcp_snapshot_bytes_are_pinned() {
    // TCP connections mid-request, and a sampled series in the drive state.
    let mut cfg = McExperimentConfig::mini(2, 40);
    cfg.proto = Proto::Tcp;
    cfg.sample_every = Some(SimDuration::from_micros(500));
    let got =
        snapshot_digest("mc_closed", |p| warm(&cfg, p, SimTime::from_micros(2_500)).expect("warm"));
    assert_eq!(got, (452_336, "52a9374b88d09ec6".to_string()));
}

#[test]
fn memcached_open_loop_with_control_plane_snapshot_bytes_are_pinned() {
    // Poisson arrivals over UDP; heartbeats, lookups and service gates live.
    let mut cfg = McExperimentConfig::mini(2, 0);
    cfg.arrival = Some(ArrivalSpec::poisson(2_000.0, SimDuration::from_millis(40)).unwrap());
    cfg.slo = Some(SimDuration::from_millis(1));
    cfg.control = Some(ControlConfig::default());
    let got = snapshot_digest("mc_open_control", |p| {
        warm(&cfg, p, SimTime::from_millis(20)).expect("warm")
    });
    assert_eq!(got, (97_100, "9cfe2cb2eb523701".to_string()));
}

#[test]
fn partition_aggregate_on_fat_tree_snapshot_bytes_are_pinned() {
    // Fan-out queries in flight across ECMP paths, deadline timers armed.
    let mut cfg = PaExperimentConfig::new(2, 30).on_fat_tree(FatTreeConfig::new(4));
    cfg.cross_rack = true;
    let got =
        snapshot_digest("pa_fat_tree", |p| warm(&cfg, p, SimTime::from_millis(2)).expect("warm"));
    assert_eq!(got, (132_924, "4ca3e0abbd70ce0d".to_string()));
}

#[test]
fn epoll_incast_with_dctcp_snapshot_bytes_are_pinned() {
    // A 12-to-1 burst across a fat-tree: queued frames, ECN marks and
    // DCTCP window state, mid-way through the second iteration.
    let mut cfg = IncastConfig::fig6a(12).on_fat_tree(FatTreeConfig::new(4));
    cfg.client = IncastClientKind::Epoll;
    cfg.cc = CongestionControl::Dctcp;
    cfg.iterations = 4;
    // Deep enough that ECN marking engages well before tail drop.
    cfg.switch = Some(SwitchTemplate {
        buffer: BufferConfig::PerPort { bytes_per_port: 96 * 1024 },
        ..SwitchTemplate::gbe_shallow()
    });
    let got = snapshot_digest("incast_epoll_dctcp", |p| {
        warm(&cfg, p, SimTime::from_millis(3)).expect("warm")
    });
    assert_eq!(got, (44_107, "aff7cfdd897d57cf".to_string()));
}

#[test]
fn pthread_incast_snapshot_bytes_are_pinned() {
    // The coordinator, eight blocking workers and their shared barrier,
    // mid-way through the second iteration of an 8-to-1 burst.
    let mut cfg = IncastConfig::fig6a(8);
    cfg.iterations = 4;
    let got = snapshot_digest("incast_pthread", |p| {
        warm(&cfg, p, SimTime::from_millis(3)).expect("warm")
    });
    assert_eq!(got, (19_915, "ab68943e00eab93c".to_string()));
}
