//! Deterministic fault schedules: scripted link flaps, switch outages, and
//! node crash/reboot cycles injected into a running cluster.
//!
//! A [`FaultPlan`] is a time-ordered list of fault directives parsed from a
//! small text format (one event per line) or built programmatically.
//! Applying it hands every switch and every node kernel its own directives
//! as a schedule it holds ([`PacketSwitch::schedule_fault`],
//! [`Kernel::schedule_fault`](diablo_stack::kernel::Kernel::schedule_fault))
//! and injects one payload-free external timer per directive at its
//! instant, so a plan applied to a serial run and to a partition-parallel
//! run of the same cluster produces bit-identical results — fault events
//! respect the quantum protocol like any other event.
//!
//! # Plan format
//!
//! ```text
//! # down the uplink of node 3 at 500 ms, restore it at 1 s
//! 500ms  link-down  node3
//! 1s     link-up    node3
//! # halve node 2's uplink bandwidth with 1% loss
//! 750ms  link-degraded node2 bandwidth=0.5 loss=0.01
//! # power-cycle a whole rack switch
//! 2s     switch-down tor0
//! 2500ms switch-up   tor0
//! # crash node 4 and bring it back half a second later
//! 1200ms node-crash  node4 reboot=500ms
//! # flap node 5's link every 200 ms, 4 flaps total
//! 100ms  link-down  node5 repeat 200ms x4
//! 150ms  link-up    node5 repeat 200ms x4
//! ```
//!
//! Times accept `ns`, `us`, `ms`, and `s` suffixes. `#` starts a comment.
//! Node targets are `node<N>` (global node index); switch targets are
//! `tor<rack>`, `array<array>`, or `datacenter`. A trailing
//! `repeat <period> x<count>` suffix fires the event `count` times total,
//! spaced `period` apart — periodic link flaps and rolling crash waves
//! without hand-unrolled scripts.
//!
//! [`FaultPlan`] implements a canonical [`Display`](core::fmt::Display)
//! (every duration in nanoseconds) whose output reparses to an equal plan,
//! mirroring the arrival-spec grammar.
//!
//! Node link faults are symmetric: the directive lands both on the node's
//! kernel (NIC carrier/degrade) and on the node-facing port of its ToR, so
//! traffic dies in both directions the way a yanked cable kills both pairs.

use crate::cluster::{Cluster, SimHost};
use diablo_engine::event::ComponentId;
use diablo_engine::parallel::ComponentHost;
use diablo_engine::time::{spec_lines, SimDuration, SimTime};
use diablo_net::link::fp20_encode;
use diablo_net::switch::{PacketSwitch, SwitchFault};
use diablo_net::topology::SwitchLevel;
use diablo_net::NodeAddr;
use diablo_node::ServerNode;
use diablo_stack::kernel::NodeFault;
use std::collections::HashMap;

/// What a scheduled fault does to its target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Node uplink loses carrier in both directions.
    LinkDown,
    /// Node uplink restored to its base parameters.
    LinkUp,
    /// Node uplink stays up but degraded in both directions.
    LinkDegraded {
        /// Bandwidth scale factor in `(0, 1]`.
        bandwidth_factor: f64,
        /// Frame-loss probability in `[0, 1]`.
        loss_rate: f64,
    },
    /// Power the target switch off (buffered frames flushed to the fault
    /// drop counter; arriving frames drop).
    SwitchDown,
    /// Power the target switch back on.
    SwitchUp,
    /// Kernel panic: sockets, connections, timers, and processes die and
    /// the NIC loses carrier until reboot.
    NodeCrash {
        /// When set, schedule the reboot this long after the crash.
        reboot_after: Option<SimDuration>,
    },
    /// Restart a crashed node (processes supporting
    /// [`reset`](diablo_stack::process::Process::reset) start over).
    NodeReboot,
}

/// Which component a fault hits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultTarget {
    /// A server node, by global node index.
    Node(NodeAddr),
    /// A switch, by schedule name (`tor<rack>`, `array<array>`,
    /// `datacenter`).
    Switch(String),
}

impl core::fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultTarget::Node(n) => write!(f, "node{}", n.0),
            FaultTarget::Switch(s) => f.write_str(s),
        }
    }
}

/// Periodic repetition of one scheduled fault: `repeat <period> x<count>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepeatSpec {
    /// Spacing between consecutive occurrences (strictly positive).
    pub period: SimDuration,
    /// Total occurrences including the first (at least 2 — a single
    /// occurrence is just the bare event).
    pub count: u32,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEventSpec {
    /// When the fault (first) fires.
    pub at: SimTime,
    /// The component it hits.
    pub target: FaultTarget,
    /// What it does.
    pub kind: FaultKind,
    /// Optional periodic repetition.
    pub repeat: Option<RepeatSpec>,
}

impl FaultEventSpec {
    /// Every instant this event fires at, in order: just `at` without a
    /// repeat, `at + k*period` for `k in 0..count` with one.
    pub fn occurrences(&self) -> impl Iterator<Item = SimTime> + '_ {
        let (period, count) = match self.repeat {
            Some(r) => (r.period, r.count),
            None => (SimDuration::ZERO, 1),
        };
        (0..count).map(move |k| self.at + period * u64::from(k))
    }

    /// The last instant this event schedules anything at — its final
    /// occurrence plus, for `node-crash reboot=<d>`, the reboot delay — or
    /// `None` when that is past the end of simulated time.
    fn last_instant(&self) -> Option<SimTime> {
        let span = match self.repeat {
            Some(r) => r.period.checked_mul(u64::from(r.count.saturating_sub(1)))?,
            None => SimDuration::ZERO,
        };
        let tail = match self.kind {
            FaultKind::NodeCrash { reboot_after: Some(d) } => d,
            _ => SimDuration::ZERO,
        };
        self.at.checked_add(span)?.checked_add(tail)
    }
}

/// Why a plan failed to parse or apply.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A line of the plan text did not parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// A switch target named no switch in the cluster's topology.
    UnknownSwitch(String),
    /// A node target outside the cluster's node range.
    NodeOutOfRange(NodeAddr),
    /// The fault kind cannot apply to the target (e.g. `switch-down` on a
    /// node).
    BadTarget(String),
}

impl core::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FaultPlanError::Parse { line, msg } => write!(f, "fault plan line {line}: {msg}"),
            FaultPlanError::UnknownSwitch(s) => write!(f, "fault plan: unknown switch `{s}`"),
            FaultPlanError::NodeOutOfRange(n) => {
                write!(f, "fault plan: node{} is outside the cluster", n.0)
            }
            FaultPlanError::BadTarget(msg) => write!(f, "fault plan: {msg}"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic, time-scripted schedule of fault injections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults, in file order (ties at one instant fire in
    /// this order).
    pub events: Vec<FaultEventSpec>,
}

fn parse_fraction(key: &str, val: &str) -> Result<f64, String> {
    let v: f64 = val.parse().map_err(|_| format!("bad {key} value `{val}`"))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("{key} {v} outside [0, 1]"));
    }
    Ok(v)
}

fn parse_target(tok: &str) -> FaultTarget {
    if let Some(n) = tok.strip_prefix("node") {
        if let Ok(idx) = n.parse::<u32>() {
            return FaultTarget::Node(NodeAddr(idx));
        }
    }
    FaultTarget::Switch(tok.to_string())
}

impl FaultPlan {
    /// Parses the one-event-per-line plan format (see the module docs).
    pub fn parse(text: &str) -> Result<Self, FaultPlanError> {
        let mut events = Vec::new();
        for (line, body) in spec_lines(text) {
            let err = |msg: String| FaultPlanError::Parse { line, msg };
            let mut toks = body.split_whitespace();
            let at_tok = toks.next().expect("non-empty line has a first token");
            let at = SimTime::ZERO + at_tok.parse::<SimDuration>().map_err(err)?;
            let op = toks.next().ok_or_else(|| err("missing fault op".into()))?;
            let target_tok = toks.next().ok_or_else(|| err("missing fault target".into()))?;
            let target = parse_target(target_tok);

            // The trailing `repeat <period> x<count>` suffix, if present,
            // separates key=value arguments from repetition.
            let rest: Vec<&str> = toks.collect();
            let (args, repeat) = match rest.iter().position(|t| *t == "repeat") {
                None => (&rest[..], None),
                Some(p) => {
                    let tail = &rest[p + 1..];
                    let [period_tok, count_tok] = tail else {
                        return Err(err(
                            "repeat needs `repeat <period> x<count>` (e.g. `repeat 200ms x4`)"
                                .into(),
                        ));
                    };
                    let period = period_tok.parse::<SimDuration>().map_err(err)?;
                    if period == SimDuration::ZERO {
                        return Err(err("repeat period must be positive".into()));
                    }
                    let count: u32 = count_tok
                        .strip_prefix('x')
                        .and_then(|n| n.parse().ok())
                        .ok_or_else(|| err(format!("bad repeat count `{count_tok}`")))?;
                    if count < 2 {
                        return Err(err("repeat count must be at least 2".into()));
                    }
                    (&rest[..p], Some(RepeatSpec { period, count }))
                }
            };
            let mut kv: HashMap<&str, &str> = HashMap::new();
            for tok in args {
                let (k, v) = tok
                    .split_once('=')
                    .ok_or_else(|| err(format!("expected key=value, got `{tok}`")))?;
                kv.insert(k, v);
            }
            let mut take = |k: &str| kv.remove(k);

            let kind = match op {
                "link-down" => FaultKind::LinkDown,
                "link-up" => FaultKind::LinkUp,
                "link-degraded" => {
                    let bandwidth_factor = match take("bandwidth") {
                        Some(v) => parse_fraction("bandwidth", v).map_err(err)?,
                        None => 1.0,
                    };
                    let loss_rate = match take("loss") {
                        Some(v) => parse_fraction("loss", v).map_err(err)?,
                        None => 0.0,
                    };
                    if bandwidth_factor <= 0.0 {
                        return Err(err("bandwidth factor must be > 0".into()));
                    }
                    FaultKind::LinkDegraded { bandwidth_factor, loss_rate }
                }
                "switch-down" => FaultKind::SwitchDown,
                "switch-up" => FaultKind::SwitchUp,
                "node-crash" => {
                    let reboot_after = match take("reboot") {
                        Some(v) => Some(v.parse::<SimDuration>().map_err(err)?),
                        None => None,
                    };
                    FaultKind::NodeCrash { reboot_after }
                }
                "node-reboot" => FaultKind::NodeReboot,
                other => return Err(err(format!("unknown fault op `{other}`"))),
            };
            if let Some(k) = kv.keys().next() {
                return Err(err(format!("unexpected argument `{k}` for `{op}`")));
            }

            // Target/kind compatibility is checkable right here: node ops
            // need node targets and switch ops need switch targets.
            let node_op = !matches!(kind, FaultKind::SwitchDown | FaultKind::SwitchUp);
            match (&target, node_op) {
                (FaultTarget::Node(_), true) | (FaultTarget::Switch(_), false) => {}
                (FaultTarget::Switch(_), true) => {
                    return Err(err(format!("`{op}` needs a node target, got `{target_tok}`")));
                }
                (FaultTarget::Node(_), false) => {
                    return Err(err(format!("`{op}` needs a switch target, got `{target_tok}`")));
                }
            }

            let event = FaultEventSpec { at, target, kind, repeat };
            if event.last_instant().is_none() {
                return Err(err(format!(
                    "the last occurrence (and its reboot) must come before {}",
                    SimTime::MAX
                )));
            }
            events.push(event);
        }
        Ok(FaultPlan { events })
    }

    /// The latest instant at which this plan fires anything (including
    /// scheduled reboots and repeat occurrences). `SimTime::ZERO` for an
    /// empty plan.
    pub fn horizon(&self) -> SimTime {
        self.events
            .iter()
            .map(|e| e.last_instant().expect("a plan's instants fit the simulated clock"))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Hands every directive to the kernel or switch it targets, which
    /// holds it in its schedule, and injects the timer that applies it.
    ///
    /// Call once, after [`Cluster::instantiate`] and before running; every
    /// event time must be at or after the host's current time. Node link
    /// faults land symmetrically on the node's kernel and on the
    /// node-facing ToR port; `node-crash reboot=<d>` also schedules the
    /// matching reboot.
    pub fn apply(&self, host: &mut SimHost, cluster: &Cluster) -> Result<(), FaultPlanError> {
        // Schedule-name → topology switch index (`tor0`, `array1`, ...).
        let mut switch_names: HashMap<String, usize> = HashMap::new();
        for s in 0..cluster.switches.len() {
            let name = match cluster.topo.switch_level(s) {
                SwitchLevel::Tor { rack } => format!("tor{rack}"),
                SwitchLevel::Array { array } => format!("array{array}"),
                SwitchLevel::Datacenter => "datacenter".to_string(),
                SwitchLevel::Aggregation { index, .. } => format!("agg{index}"),
                SwitchLevel::Core { index } => format!("core{index}"),
            };
            switch_names.insert(name, s);
        }

        for ev in &self.events {
            for at in ev.occurrences() {
                match &ev.target {
                    FaultTarget::Node(addr) => {
                        let node = *cluster
                            .nodes
                            .get(addr.index())
                            .ok_or(FaultPlanError::NodeOutOfRange(*addr))?;
                        let (tor, port) = cluster.topo.node_attachment(*addr);
                        let tor = cluster.switches[tor];
                        let mut link = |node_fault, switch_fault| {
                            schedule_node_fault(host, node, at, node_fault);
                            schedule_switch_fault(host, tor, at, switch_fault);
                        };
                        match ev.kind {
                            FaultKind::LinkDown => {
                                link(NodeFault::LinkDown, SwitchFault::PortDown { port });
                            }
                            FaultKind::LinkUp => {
                                link(NodeFault::LinkUp, SwitchFault::PortUp { port })
                            }
                            FaultKind::LinkDegraded { bandwidth_factor, loss_rate } => {
                                let bandwidth_factor_fp20 = fp20_encode(bandwidth_factor).max(1);
                                let loss_rate_fp20 = fp20_encode(loss_rate);
                                link(
                                    NodeFault::LinkDegraded {
                                        bandwidth_factor_fp20,
                                        loss_rate_fp20,
                                    },
                                    SwitchFault::PortDegraded {
                                        port,
                                        bandwidth_factor_fp20,
                                        loss_rate_fp20,
                                    },
                                );
                            }
                            FaultKind::NodeCrash { reboot_after } => {
                                schedule_node_fault(host, node, at, NodeFault::Crash);
                                if let Some(d) = reboot_after {
                                    schedule_node_fault(host, node, at + d, NodeFault::Reboot);
                                }
                            }
                            FaultKind::NodeReboot => {
                                schedule_node_fault(host, node, at, NodeFault::Reboot);
                            }
                            FaultKind::SwitchDown | FaultKind::SwitchUp => {
                                return Err(FaultPlanError::BadTarget(format!(
                                    "{:?} cannot target node{}",
                                    ev.kind, addr.0
                                )));
                            }
                        }
                    }
                    FaultTarget::Switch(name) => {
                        let &idx = switch_names
                            .get(name.as_str())
                            .ok_or_else(|| FaultPlanError::UnknownSwitch(name.clone()))?;
                        let fault = match ev.kind {
                            FaultKind::SwitchDown => SwitchFault::SwitchDown,
                            FaultKind::SwitchUp => SwitchFault::SwitchUp,
                            other => {
                                return Err(FaultPlanError::BadTarget(format!(
                                    "{other:?} cannot target switch `{name}`"
                                )));
                            }
                        };
                        schedule_switch_fault(host, cluster.switches[idx], at, fault);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Adds one directive to a node kernel's schedule and injects its timer.
fn schedule_node_fault(host: &mut SimHost, node: ComponentId, at: SimTime, fault: NodeFault) {
    let key = host
        .component_mut::<ServerNode>(node)
        .expect("cluster node ids name ServerNode components")
        .kernel_mut()
        .schedule_fault(at, fault);
    host.inject_timer(at, node, key);
}

/// Adds one directive to a switch's schedule and injects its timer.
fn schedule_switch_fault(host: &mut SimHost, switch: ComponentId, at: SimTime, fault: SwitchFault) {
    let key = host
        .component_mut::<PacketSwitch>(switch)
        .expect("cluster switch ids name PacketSwitch components")
        .schedule_fault(at, fault);
    host.inject_timer(at, switch, key);
}

/// Canonical plan text: one event per line in file order, every duration
/// rendered as integer nanoseconds (the grammar's exact grid), so
/// `FaultPlan::parse(&plan.to_string())` reproduces an equal plan.
impl core::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for ev in &self.events {
            write!(f, "{}ns", ev.at.as_nanos())?;
            match ev.kind {
                FaultKind::LinkDown => write!(f, " link-down {}", ev.target)?,
                FaultKind::LinkUp => write!(f, " link-up {}", ev.target)?,
                FaultKind::LinkDegraded { bandwidth_factor, loss_rate } => write!(
                    f,
                    " link-degraded {} bandwidth={bandwidth_factor} loss={loss_rate}",
                    ev.target
                )?,
                FaultKind::SwitchDown => write!(f, " switch-down {}", ev.target)?,
                FaultKind::SwitchUp => write!(f, " switch-up {}", ev.target)?,
                FaultKind::NodeCrash { reboot_after } => {
                    write!(f, " node-crash {}", ev.target)?;
                    if let Some(d) = reboot_after {
                        write!(f, " reboot={}ns", d.as_nanos())?;
                    }
                }
                FaultKind::NodeReboot => write!(f, " node-reboot {}", ev.target)?,
            }
            if let Some(r) = ev.repeat {
                write!(f, " repeat {}ns x{}", r.period.as_nanos(), r.count)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_example() {
        let plan = FaultPlan::parse(
            "# schedule\n\
             500ms  link-down  node3\n\
             1s     link-up    node3   # restore\n\
             750ms  link-degraded node2 bandwidth=0.5 loss=0.01\n\
             2s     switch-down tor0\n\
             2500ms switch-up   tor0\n\
             1200ms node-crash  node4 reboot=500ms\n\
             \n\
             4s     node-reboot node4\n",
        )
        .expect("plan parses");
        assert_eq!(plan.events.len(), 7);
        assert_eq!(plan.events[0].at, SimTime::from_millis(500));
        assert_eq!(plan.events[0].target, FaultTarget::Node(NodeAddr(3)));
        assert_eq!(plan.events[0].kind, FaultKind::LinkDown);
        assert_eq!(
            plan.events[2].kind,
            FaultKind::LinkDegraded { bandwidth_factor: 0.5, loss_rate: 0.01 }
        );
        assert_eq!(plan.events[3].target, FaultTarget::Switch("tor0".into()));
        assert_eq!(
            plan.events[5].kind,
            FaultKind::NodeCrash { reboot_after: Some(SimDuration::from_millis(500)) }
        );
        assert_eq!(plan.horizon(), SimTime::from_secs(4));
    }

    #[test]
    fn rejects_malformed_lines() {
        for (text, needle) in [
            ("500 link-down node0", "suffix"),
            ("500ms link-down", "missing fault target"),
            ("500ms frobnicate node0", "unknown fault op"),
            ("500ms link-down tor0", "needs a node target"),
            ("500ms switch-down node0", "needs a switch target"),
            ("500ms link-degraded node0 loss=1.5", "outside [0, 1]"),
            ("500ms link-degraded node0 bandwidth=0", "must be > 0"),
            ("500ms node-crash node0 bogus=1", "unexpected argument"),
            // Each duration fits the clock; what the line schedules last
            // does not.
            ("20000000s link-down node0", "is longer than"),
            ("1s link-down node0 repeat 100000s x4000000000", "last occurrence"),
            ("18000000s link-down node0 repeat 100000s x6", "last occurrence"),
            ("18000000s node-crash node0 reboot=1000000s", "last occurrence"),
        ] {
            let e = FaultPlan::parse(text).expect_err(text);
            let msg = e.to_string();
            assert!(msg.contains(needle), "`{text}` gave `{msg}`, wanted `{needle}`");
        }
    }

    /// The duration token's own cases are tabled on `SimDuration`'s
    /// `FromStr`; through the grammar it must reject in both the
    /// timestamp column and the reboot argument.
    #[test]
    fn rejects_non_finite_and_negative_durations() {
        for text in [
            "NaNms link-down node0",
            "infs link-down node0",
            "-5ms link-down node0",
            "500ms node-crash node0 reboot=NaNms",
            "500ms node-crash node0 reboot=-5ms",
        ] {
            let e = FaultPlan::parse(text).expect_err(text).to_string();
            assert!(e.contains("finite and non-negative"), "`{text}` gave `{e}`");
        }
    }

    #[test]
    fn parses_repeat_suffix_and_expands_occurrences() {
        let plan = FaultPlan::parse(
            "100ms link-down node5 repeat 200ms x4\n\
             1200ms node-crash node4 reboot=50ms repeat 300ms x2\n",
        )
        .expect("repeat plan parses");
        assert_eq!(
            plan.events[0].repeat,
            Some(RepeatSpec { period: SimDuration::from_millis(200), count: 4 })
        );
        let at: Vec<SimTime> = plan.events[0].occurrences().collect();
        assert_eq!(
            at,
            [100, 300, 500, 700].map(SimTime::from_millis).to_vec(),
            "occurrences are at + k*period"
        );
        // Horizon covers the last occurrence plus its reboot tail:
        // 1200ms + 300ms + 50ms.
        assert_eq!(plan.horizon(), SimTime::from_millis(1550));
        // A bare event fires exactly once.
        let single = FaultPlan::parse("7ms link-up node1").unwrap();
        assert_eq!(single.events[0].occurrences().count(), 1);
    }

    #[test]
    fn rejects_malformed_repeats() {
        for (text, needle) in [
            ("100ms link-down node5 repeat", "repeat needs"),
            ("100ms link-down node5 repeat 200ms", "repeat needs"),
            ("100ms link-down node5 repeat 200ms x4 extra", "repeat needs"),
            ("100ms link-down node5 repeat 200 x4", "suffix"),
            ("100ms link-down node5 repeat -5ms x4", "finite and non-negative"),
            ("100ms link-down node5 repeat 0ms x4", "must be positive"),
            ("100ms link-down node5 repeat 200ms 4", "bad repeat count"),
            ("100ms link-down node5 repeat 200ms xzero", "bad repeat count"),
            ("100ms link-down node5 repeat 200ms x1", "at least 2"),
            ("100ms link-down node5 repeat 200ms x0", "at least 2"),
        ] {
            let e = FaultPlan::parse(text).expect_err(text);
            let msg = e.to_string();
            assert!(msg.contains(needle), "`{text}` gave `{msg}`, wanted `{needle}`");
        }
    }

    /// The canonical `Display` form reparses to an equal plan, like the
    /// arrival grammar's.
    #[test]
    fn display_round_trips() {
        let plan = FaultPlan::parse(
            "# everything the grammar can express\n\
             500ms  link-down  node3\n\
             1s     link-up    node3\n\
             750ms  link-degraded node2 bandwidth=0.5 loss=0.01\n\
             2s     switch-down tor0\n\
             2500ms switch-up   tor0\n\
             1200ms node-crash  node4 reboot=500ms\n\
             4s     node-reboot node4\n\
             100ms  link-down   node5 repeat 200ms x4\n\
             150ms  link-up     node5 repeat 200ms x4\n\
             20ms   node-crash  node6 reboot=35ms repeat 240ms x2\n",
        )
        .expect("plan parses");
        let text = plan.to_string();
        let reparsed = FaultPlan::parse(&text)
            .unwrap_or_else(|e| panic!("canonical form must reparse: {e}\n{text}"));
        assert_eq!(reparsed, plan, "round-trip changed the plan:\n{text}");
        // Canonical output is itself a fixed point.
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn bundled_rolling_crash_plan_parses_and_round_trips() {
        let text = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../scenarios/rolling_crash.fplan"
        ))
        .expect("scenarios/rolling_crash.fplan exists");
        let plan = FaultPlan::parse(&text).expect("bundled plan parses");
        assert!(
            plan.events.iter().any(|e| e.repeat.is_some()),
            "rolling_crash.fplan should exercise the repeat suffix"
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn apply_validates_targets() {
        use crate::cluster::{ClusterSpec, RunMode};
        use diablo_net::topology::TopologyConfig;
        let spec =
            ClusterSpec::gbe(TopologyConfig { racks: 2, servers_per_rack: 2, racks_per_array: 2 });
        let (mut host, cluster) = Cluster::instantiate(&spec, RunMode::Serial);
        let bad_node = FaultPlan::parse("1ms link-down node99").unwrap();
        assert_eq!(
            bad_node.apply(&mut host, &cluster),
            Err(FaultPlanError::NodeOutOfRange(NodeAddr(99)))
        );
        let bad_switch = FaultPlan::parse("1ms switch-down tor7").unwrap();
        assert_eq!(
            bad_switch.apply(&mut host, &cluster),
            Err(FaultPlanError::UnknownSwitch("tor7".into()))
        );
        let good = FaultPlan::parse("1ms link-down node0\n2ms switch-down tor1").unwrap();
        good.apply(&mut host, &cluster).expect("valid plan applies");
    }
}
