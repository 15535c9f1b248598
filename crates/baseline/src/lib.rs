//! # diablo-baseline — the comparison simulators
//!
//! The evaluation methodologies DIABLO is compared against (§2.2, §4.1):
//!
//! * [`agent`] / [`incast`] — an ns2-style *network-only* simulator:
//!   packet-granular Reno agents with zero OS/CPU cost, attached to the
//!   same switch models as the full system. The divergence between this
//!   baseline and the full stack at scale is the paper's core claim.
//! * [`analytic`] — closed-form queueing estimates (fluid incast model,
//!   Erlang-C server latency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod analytic;
pub mod incast;

pub use agent::{TcpSender, TcpSink, PKT_SIZE};
pub use incast::{run_baseline_incast, BaselineIncastClient, BaselineServer};
