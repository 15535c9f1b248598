//! Every `run_until` call of the parallel executor starts its own scoped
//! worker threads and joins them before it returns: however a simulation
//! is cut into calls, it must reach exactly the state a single long run —
//! or the serial executor — would.

use diablo_engine::parallel::{ComponentHost, ParallelSimulation};
use diablo_engine::prelude::*;
use std::any::Any;

/// Deterministic gossip node: every 100 ns it messages both mesh neighbors
/// with a running checksum folded from everything it has heard so far.
struct Gossip {
    peers: Vec<ComponentId>,
    sent: u64,
    limit: u64,
    acc: u64,
    log: Vec<(SimTime, u64)>,
}

impl Gossip {
    fn new(limit: u64) -> Self {
        Gossip { peers: Vec::new(), sent: 0, limit, acc: 0x9E3779B9, log: Vec::new() }
    }
}

impl Instrumented for Gossip {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        v.counter("sent", self.sent);
        v.counter("heard", self.log.len() as u64);
        v.counter("acc", self.acc);
    }
}

impl Component<u64> for Gossip {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.set_timer(SimDuration::from_nanos(100), 0);
    }
    fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
        for &p in &self.peers {
            ctx.send_after(p, PortNo(0), SimDuration::from_micros(2), self.acc);
        }
        self.sent += 1;
        if self.sent < self.limit {
            ctx.set_timer(SimDuration::from_nanos(100), 0);
        }
    }
    fn on_message(&mut self, _port: PortNo, msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.acc = self.acc.rotate_left(7) ^ msg;
        self.log.push((ctx.now(), self.acc));
    }
    fn instrumented(&self) -> Option<&dyn Instrumented> {
        Some(self)
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// `n` nodes dealt round-robin over `parts` partitions, each sending
/// `limit` rounds of gossip.
fn build<H: ComponentHost<u64>>(
    host: &mut H,
    parts: usize,
    n: usize,
    limit: u64,
) -> Vec<ComponentId> {
    (0..n).map(|i| host.add_in_partition(i % parts, Box::new(Gossip::new(limit)))).collect()
}

fn wire(set_peer: &mut dyn FnMut(usize, Vec<ComponentId>), ids: &[ComponentId]) {
    let n = ids.len();
    for i in 0..n {
        set_peer(i, vec![ids[(i + 1) % n], ids[(i + n - 1) % n]]);
    }
}

fn snapshot_parallel(
    sim: &ParallelSimulation<u64>,
    ids: &[ComponentId],
) -> Vec<(u64, Vec<(SimTime, u64)>)> {
    ids.iter()
        .map(|&id| {
            let g = sim.component::<Gossip>(id).unwrap();
            (g.acc, g.log.clone())
        })
        .collect()
}

#[test]
fn split_runs_match_one_long_run_and_serial() {
    let quantum = SimDuration::from_micros(1);
    let end = SimTime::from_micros(40);
    let mid = SimTime::from_micros(7);

    // (a) Parallel (4 partitions multiplexed onto 2 pinned workers), two
    // consecutive run_until calls.
    let mut split = ParallelSimulation::<u64>::with_workers(4, 2, quantum);
    let ids = build(&mut split, 4, 8, 50);
    wire(&mut |i, peers| split.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
    split.run_until(mid).unwrap();
    let stats_split = split.run_until(end).unwrap();

    // (b) Parallel, one long run, different worker count.
    let mut long = ParallelSimulation::<u64>::with_workers(4, 4, quantum);
    let ids_l = build(&mut long, 4, 8, 50);
    wire(&mut |i, peers| long.component_mut::<Gossip>(ids_l[i]).unwrap().peers = peers, &ids_l);
    let stats_long = long.run_until(end).unwrap();

    // (c) Serial reference.
    let mut serial = Simulation::<u64>::new();
    let ids_s = build(&mut serial, 1, 8, 50);
    wire(&mut |i, peers| serial.component_mut::<Gossip>(ids_s[i]).unwrap().peers = peers, &ids_s);
    let stats_serial = serial.run_until(end).unwrap();

    assert_eq!(stats_split.events, stats_long.events);
    assert_eq!(stats_split.events, stats_serial.events);
    assert_eq!(stats_split.final_time, stats_long.final_time);

    let snap_split = snapshot_parallel(&split, &ids);
    let snap_long = snapshot_parallel(&long, &ids_l);
    let snap_serial: Vec<(u64, Vec<(SimTime, u64)>)> = ids_s
        .iter()
        .map(|&id| {
            let g = serial.component::<Gossip>(id).unwrap();
            (g.acc, g.log.clone())
        })
        .collect();
    assert_eq!(snap_split, snap_long, "split runs diverged from one long run");
    assert_eq!(snap_split, snap_serial, "parallel diverged from serial");
}

/// Scrapes every instrumented component into a fresh registry and returns
/// the serialized bytes.
fn scrape(sim: &ParallelSimulation<u64>) -> String {
    let mut reg = MetricsRegistry::new();
    sim.visit_instrumented(|id, ins| reg.record(&format!("gossip{}", id.index()), ins));
    reg.to_json()
}

/// Re-running the same workload after a worker-count change must produce
/// byte-identical metrics scrapes at every observation point: worker count
/// is a scheduling knob, and the scrape order is component-id order on
/// every executor, so not a single byte of the artifact may move.
#[test]
fn worker_count_change_rescrapes_identically() {
    let quantum = SimDuration::from_micros(1);
    let mid = SimTime::from_micros(7);
    let end = SimTime::from_micros(40);
    let mut scrapes: Vec<(String, String)> = Vec::new();
    for workers in [1usize, 2, 3] {
        let mut sim = ParallelSimulation::<u64>::with_workers(4, workers, quantum);
        let ids = build(&mut sim, 4, 8, 50);
        wire(&mut |i, peers| sim.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
        sim.run_until(mid).unwrap();
        let at_mid = scrape(&sim);
        sim.run_until(end).unwrap();
        scrapes.push((at_mid, scrape(&sim)));
    }
    assert!(scrapes[0].0.contains("gossip0"), "scrape must actually contain components");
    for w in 1..scrapes.len() {
        assert_eq!(scrapes[0].0, scrapes[w].0, "mid-run scrape diverged at worker set {w}");
        assert_eq!(scrapes[0].1, scrapes[w].1, "final scrape diverged at worker set {w}");
    }
}

/// The run boundary at its finest grain: one `run_until` call — one set of
/// thread spawns and joins, one fresh barrier — per lookahead, on workers
/// that own 1, 1 and 2 partitions.
#[test]
fn one_lookahead_runs_match_one_long_run_and_serial() {
    // A node gossips every 100 ns: 2,500 rounds keep the mesh busy for 250
    // of the 300 steps, the rest run on drained queues.
    const GOSSIP_ROUNDS: u64 = 2_500;
    let quantum = SimDuration::from_micros(1);
    let steps = 300u64;
    let end = SimTime::ZERO + quantum * steps;
    let parallel = || {
        let mut sim = ParallelSimulation::<u64>::with_workers(4, 3, quantum);
        let ids = build(&mut sim, 4, 8, GOSSIP_ROUNDS);
        wire(&mut |i, peers| sim.component_mut::<Gossip>(ids[i]).unwrap().peers = peers, &ids);
        sim
    };

    let mut stepped = parallel();
    let stats_stepped = (1..=steps)
        .map(|step| stepped.run_until(SimTime::ZERO + quantum * step).unwrap())
        .last()
        .expect("at least one step");

    let mut long = parallel();
    let stats_long = long.run_until(end).unwrap();

    let mut serial = Simulation::<u64>::new();
    let ids_s = build(&mut serial, 1, 8, GOSSIP_ROUNDS);
    wire(&mut |i, peers| serial.component_mut::<Gossip>(ids_s[i]).unwrap().peers = peers, &ids_s);
    let stats_serial = serial.run_until(end).unwrap();
    let mut reg = MetricsRegistry::new();
    serial.visit_instrumented(|id, ins| reg.record(&format!("gossip{}", id.index()), ins));

    assert_eq!(stats_long.events, 8 * GOSSIP_ROUNDS * 3, "a timer and two messages a round");
    assert_eq!(stats_stepped.events, stats_long.events);
    assert_eq!(stats_stepped.events, stats_serial.events);
    assert_eq!(stats_stepped.final_time, stats_long.final_time);
    assert_eq!(scrape(&stepped), scrape(&long), "stepped runs diverged from one long run");
    assert_eq!(scrape(&stepped), reg.to_json(), "parallel diverged from serial");
}

/// Logs the limit every handler is shown, and keeps a neighbour busy.
struct LimitLog {
    peer: Option<ComponentId>,
    seen: Vec<(SimTime, SimTime)>,
}

impl Component<u64> for LimitLog {
    fn on_start(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.seen.push((ctx.now(), ctx.limit()));
        ctx.set_timer(SimDuration::from_nanos(300), 0);
    }
    fn on_timer(&mut self, _key: TimerKey, ctx: &mut Ctx<'_, u64>) {
        self.seen.push((ctx.now(), ctx.limit()));
        if let Some(p) = self.peer {
            ctx.send_after(p, PortNo(0), SimDuration::from_micros(2), 0);
        }
        if ctx.now() < SimTime::from_micros(30) {
            ctx.set_timer(SimDuration::from_nanos(300), 0);
        }
    }
    fn on_message(&mut self, _port: PortNo, _msg: u64, ctx: &mut Ctx<'_, u64>) {
        self.seen.push((ctx.now(), ctx.limit()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Two loggers in two partitions, the second messaging the first.
fn limit_logs<H: ComponentHost<u64>>(host: &mut H) -> [ComponentId; 2] {
    let a = host.add_in_partition(0, Box::new(LimitLog { peer: None, seen: Vec::new() }));
    let b = host.add_in_partition(1, Box::new(LimitLog { peer: Some(a), seen: Vec::new() }));
    [a, b]
}

/// A handler sees the limit of the `run_until` call it runs in — on the
/// parallel executor too, whose rounds end at much nearer horizons.
#[test]
fn handlers_see_the_run_limit_not_the_round_horizon() {
    let limits = [SimTime::from_micros(7), SimTime::from_micros(40)];
    let mut parallel = ParallelSimulation::<u64>::with_workers(2, 2, SimDuration::from_micros(1));
    let ids = limit_logs(&mut parallel);
    let mut serial = Simulation::<u64>::new();
    let ids_s = limit_logs(&mut serial);
    for limit in limits {
        parallel.run_until(limit).unwrap();
        serial.run_until(limit).unwrap();
    }
    let log = |c: Option<&LimitLog>| c.unwrap().seen.clone();
    let seen: Vec<_> = ids.iter().flat_map(|&id| log(parallel.component(id))).collect();
    let reference: Vec<_> = ids_s.iter().flat_map(|&id| log(serial.component(id))).collect();
    assert_eq!(seen, reference, "the executors showed different limits");
    assert!(seen.len() > 100, "too few events to cross many rounds");
    for (now, limit) in seen {
        let expected = if now <= limits[0] { limits[0] } else { limits[1] };
        assert_eq!(limit, expected, "the handler at {now} saw {limit}");
    }
}
