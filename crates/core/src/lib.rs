//! # diablo-core — the DIABLO simulator product
//!
//! Ties the substrates together into the tool the paper describes: build a
//! warehouse-scale array (servers + NICs + three switch levels) from a
//! [`cluster::ClusterSpec`], run it deterministically on one thread or
//! partition-parallel across many ([`cluster::SimHost`]), drive any
//! [`experiment::Experiment`] through the one shared lifecycle
//! ([`experiment::run`], [`experiment::warm`]), run the paper's workloads
//! ([`experiments`]), and render results ([`report`]). The [`survey`]
//! module carries the paper's motivation data (Figure 2 / Table 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod experiment;
pub mod experiments;
pub mod fault;
pub mod observe;
pub mod report;
pub mod snapshot;
pub mod survey;
pub mod sweep;

pub use cluster::{Cluster, ClusterSpec, FabricKind, RunMode, SimHost, SwitchTemplate};
pub use diablo_apps::arrival::{ArrivalError, ArrivalProcess, ArrivalSpec, SloStats};
pub use diablo_apps::control::{ControlConfig, ControlReport};
pub use experiment::{
    run, warm, CheckpointPolicy, Experiment, ExperimentBase, ExperimentError, RunEnvelope,
};
pub use experiments::{
    try_run_incast, try_run_memcached, try_run_memcached_with, try_run_partition_aggregate,
    warm_memcached, IncastClientKind, IncastConfig, IncastResult, McExperimentConfig,
    McExperimentResult, PaExperimentConfig, PaExperimentResult,
};
pub use fault::{FaultEventSpec, FaultKind, FaultPlan, FaultPlanError, FaultTarget, RepeatSpec};
pub use observe::DropAccounting;
pub use sweep::{
    SweepAxis, SweepEngine, SweepError, SweepOutcome, SweepPoint, SweepRunner, SweepSpec,
    SweepTable,
};
