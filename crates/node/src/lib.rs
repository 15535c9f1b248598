//! # diablo-node — the simulated server
//!
//! Composes the fixed-CPI CPU + modeled kernel (`diablo-stack`) and NIC
//! (`diablo-nic`) into one engine component: the equivalent of one target
//! server (one hardware thread of a RAMP Gold pipeline in the FPGA
//! prototype). A [`ServerNode`] owns a [`Kernel`] and adapts engine timers
//! and port messages onto the kernel's entry points.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use diablo_engine::component::{Component, Ctx};
use diablo_engine::event::{ComponentId, PortNo, TimerKey};
use diablo_engine::metrics::{FlightRecord, Instrumented, MetricsVisitor};
use diablo_net::frame::Frame;
use diablo_net::link::PortPeer;
use diablo_net::topology::Topology;
use diablo_stack::kernel::{Kernel, KernelEnv, NodeConfig};
use diablo_stack::process::{Process, Tid};
use std::any::Any;
use std::sync::Arc;

/// One simulated server: kernel + NIC behind a single network port.
///
/// # Examples
///
/// Construction requires the ToR wiring; see the workspace examples
/// (`examples/quickstart.rs`) for a complete cluster.
#[derive(Debug)]
pub struct ServerNode {
    kernel: Kernel,
    uplink: (ComponentId, PortNo),
}

impl ServerNode {
    /// Creates a server wired to `uplink` (its ToR switch port) that
    /// routes through `topo`.
    pub fn new(cfg: NodeConfig, uplink: PortPeer, topo: Arc<Topology>) -> Self {
        ServerNode {
            kernel: Kernel::new(cfg, uplink, topo),
            uplink: (uplink.component, uplink.port),
        }
    }

    /// Registers a guest thread (before the simulation starts).
    pub fn spawn(&mut self, process: Box<dyn Process>) -> Tid {
        self.kernel.spawn(process)
    }

    /// The kernel, for inspection.
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Mutable kernel access (pre-run configuration).
    pub fn kernel_mut(&mut self) -> &mut Kernel {
        &mut self.kernel
    }
}

/// Adapts the engine [`Ctx`] to the kernel's environment callbacks.
struct EnvAdapter<'a, 'b> {
    ctx: &'a mut Ctx<'b, Frame>,
    uplink: (ComponentId, PortNo),
}

impl KernelEnv for EnvAdapter<'_, '_> {
    fn now(&self) -> diablo_engine::time::SimTime {
        self.ctx.now()
    }

    fn set_timer_at(&mut self, at: diablo_engine::time::SimTime, key: u64) {
        self.ctx.set_timer_at(at, key);
    }

    fn send_frame(&mut self, at: diablo_engine::time::SimTime, frame: Frame) {
        let (c, p) = self.uplink;
        self.ctx.send_at(c, p, at, frame);
    }

    fn limit(&self) -> diablo_engine::time::SimTime {
        self.ctx.limit()
    }

    fn source_order(&self) -> std::cmp::Ordering {
        self.ctx.source().cmp(&self.ctx.self_id())
    }

    fn reserve_seq(&mut self) -> u64 {
        self.ctx.reserve_seq()
    }

    fn set_timer_at_seq(&mut self, at: diablo_engine::time::SimTime, key: u64, seq: u64) {
        self.ctx.set_timer_at_seq(at, key, seq);
    }
}

impl Component<Frame> for ServerNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Frame>) {
        let mut env = EnvAdapter { ctx, uplink: self.uplink };
        self.kernel.boot(&mut env);
    }

    fn on_timer(&mut self, key: TimerKey, ctx: &mut Ctx<'_, Frame>) {
        let mut env = EnvAdapter { ctx, uplink: self.uplink };
        self.kernel.on_timer(key, &mut env);
    }

    fn on_message(&mut self, _port: PortNo, frame: Frame, ctx: &mut Ctx<'_, Frame>) {
        let mut env = EnvAdapter { ctx, uplink: self.uplink };
        self.kernel.on_frame(frame, &mut env);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn instrumented(&self) -> Option<&dyn Instrumented> {
        Some(self)
    }

    fn persist(&self) -> Option<&dyn diablo_engine::snap::Persist> {
        Some(self)
    }

    fn persist_mut(&mut self) -> Option<&mut dyn diablo_engine::snap::Persist> {
        Some(self)
    }
}

// `uplink` is config-derived wiring; only the kernel evolves.
diablo_engine::impl_persist_fields!(ServerNode { kernel: nested, uplink: config });

impl Instrumented for ServerNode {
    fn visit_metrics(&self, v: &mut dyn MetricsVisitor) {
        self.kernel.visit_metrics(v);
    }

    fn flight_records(&self) -> Vec<FlightRecord> {
        self.kernel.flight_records()
    }
}
