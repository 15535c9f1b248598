//! # diablo-apps — guest applications for the DIABLO simulator
//!
//! Deterministic state-machine models of the paper's workloads:
//!
//! * [`arrival`] — when a load generator's requests start: one admission
//!   rule, closed- or open-loop ([`arrival::Admission`]), on deterministic
//!   schedules parsed from a piecewise text grammar, with SLO/load-shed
//!   accounting ([`arrival::SloStats`]).
//! * [`control`] — the cluster control plane: a scheduler process with a
//!   heartbeat-driven health state machine, failover placement and
//!   SLO-driven autoscaling ([`control::ControlPlane`]), the per-node
//!   agent that executes its commands ([`control::ControlAgent`]), and
//!   the registry-lookup protocol clients use to discover live
//!   endpoints.
//! * [`conn`] — the TCP rules the echo, incast and memcached guests
//!   share: one connect-and-redial rule ([`conn::dial`]), one
//!   listening-socket rule ([`conn::listen`]) and one serve loop for a
//!   server that takes one connection at a time ([`conn::serve`]).
//! * [`echo`] — TCP/UDP echo servers and clients plus a CPU spinner;
//!   building blocks and smoke tests.
//! * [`failure`] — client-side failure accounting ([`failure::FailureStats`])
//!   and deterministic retry backoff, shared by the workloads' reconnect
//!   paths under injected faults.
//! * [`incast`] — the fixed-block synchronized-read benchmark behind the
//!   TCP Incast case study (§4.1), with `pthread`-blocking and `epoll`
//!   client variants.
//! * [`memcached`] — a behavioural model of memcached 1.4.15/1.4.17 over
//!   TCP and UDP with worker threads.
//! * [`partition_aggregate`] — the fan-out/fan-in search tier: a
//!   front-end aggregating per-query leaf answers under a deadline.
//! * [`udp_loop`] — the UDP event loop the scheduler, the agent, the
//!   leaf, the front-end and the memcached client run
//!   ([`udp_loop::UdpGuest`]).
//! * [`workload`] — statistical samplers (GEV, generalized Pareto, Zipf)
//!   and the Facebook-ETC-style key-value workload generator (§4.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrival;
pub mod conn;
pub mod control;
pub mod echo;
pub mod failure;
pub mod incast;
pub mod memcached;
pub mod partition_aggregate;
pub mod udp_loop;
pub mod workload;
