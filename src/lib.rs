//! # DIABLO — Datacenter-In-A-Box at LOw cost
//!
//! A software reproduction of the warehouse-scale computer network
//! simulator from *"DIABLO: A Warehouse-Scale Computer Network Simulator
//! using FPGAs"* (ASPLOS 2015). DIABLO models a WSC **array** — thousands
//! of servers running a full software stack, connected by top-of-rack,
//! array and datacenter switches — with deterministic, repeatable timing.
//! Where the original accelerates its models on FPGAs, this crate runs the
//! same abstraction level (FAME-style split functional/timing models) on a
//! deterministic discrete-event engine, optionally partition-parallel
//! across host threads with bit-identical results.
//!
//! ## Crate map
//!
//! | Module | Crate | What it holds |
//! |---|---|---|
//! | [`engine`] | `diablo-engine` | Deterministic DES core, time, RNG, stats |
//! | [`net`] | `diablo-net` | Frames, links, switch models, WSC topology |
//! | [`nic`] | `diablo-nic` | NIC model: rings, DMA, interrupt mitigation |
//! | [`stack`] | `diablo-stack` | Modeled OS: scheduler, syscalls, TCP/UDP |
//! | [`node`] | `diablo-node` | The simulated server component |
//! | [`apps`] | `diablo-apps` | Incast benchmark, memcached model, workloads |
//! | [`baseline`] | `diablo-baseline` | ns2-like network-only simulator, analytics |
//! | [`fpga`] | `diablo-fpga` | FPGA resource/cost model (Table 2, §3.4) |
//! | [`core`] | `diablo-core` | Cluster builder, experiment harness, reports |
//!
//! ## Quickstart
//!
//! ```
//! use diablo::prelude::*;
//!
//! // A 2-rack array with the paper's GbE switches.
//! let spec = ClusterSpec::gbe(TopologyConfig {
//!     racks: 2,
//!     servers_per_rack: 4,
//!     racks_per_array: 2,
//! });
//! let mut host = SimHost::new(RunMode::Serial);
//! let cluster = Cluster::build(&mut host, &spec);
//! assert_eq!(cluster.nodes.len(), 8);
//!
//! // Put an echo server on one node and a client on another rack.
//! cluster.spawn(&mut host, NodeAddr(0), Box::new(TcpEchoServer::new(7)));
//! cluster.spawn(
//!     &mut host,
//!     NodeAddr(5),
//!     Box::new(TcpEchoClient::new(SockAddr::new(NodeAddr(0), 7), 10, 1000)),
//! );
//! host.run_until(SimTime::from_secs(5))?;
//! let client: &TcpEchoClient =
//!     cluster.process(&host, NodeAddr(5), Tid(0)).expect("client state");
//! assert_eq!(client.rtts.len(), 10);
//! # Ok::<(), diablo::engine::error::EngineError>(())
//! ```

#![forbid(unsafe_code)]

pub use diablo_apps as apps;
pub use diablo_baseline as baseline;
pub use diablo_core as core;
pub use diablo_engine as engine;
pub use diablo_fpga as fpga;
pub use diablo_net as net;
pub use diablo_nic as nic;
pub use diablo_node as node;
pub use diablo_stack as stack;

/// The most commonly used types across all crates.
pub mod prelude {
    pub use diablo_apps::echo::{TcpEchoClient, TcpEchoServer, UdpEchoServer, UdpPingClient};
    pub use diablo_apps::incast::{IncastEpollClient, IncastMaster, IncastServer, IncastWorker};
    pub use diablo_apps::memcached::{McClient, McClientConfig, McDispatcher, McVersion, McWorker};
    pub use diablo_apps::partition_aggregate::{
        PaFrontend, PaFrontendConfig, PaLeaf, PaLeafConfig,
    };
    pub use diablo_apps::workload::EtcWorkload;
    pub use diablo_core::cluster::{
        Cluster, ClusterSpec, FabricKind, RunMode, SimHost, SwitchTemplate,
    };
    pub use diablo_core::experiment::{
        run, warm, CheckpointPolicy, Experiment, ExperimentBase, ExperimentError, RunEnvelope,
    };
    pub use diablo_core::experiments::{
        IncastClientKind, IncastConfig, McExperimentConfig, PaExperimentConfig,
    };
    pub use diablo_core::observe::DropAccounting;
    pub use diablo_engine::prelude::*;
    pub use diablo_net::topology::{FatTreeConfig, HopClass, Topology, TopologyConfig};
    pub use diablo_net::{NodeAddr, SockAddr};
    pub use diablo_node::ServerNode;
    pub use diablo_stack::process::{Proto, Tid};
    pub use diablo_stack::profile::{CongestionControl, KernelProfile};
}
