//! # diablo-stack — the modeled guest operating system
//!
//! DIABLO runs unmodified Linux on simulated SPARC servers; this software
//! reproduction models the OS explicitly instead: a round-robin process
//! scheduler over a single fixed-CPI CPU, a faithful syscall subset
//! (sockets, `epoll`, `accept4`...), softirq/NAPI-driven packet
//! processing, and full TCP (NewReno) and UDP transports — all
//! parameterized by [`profile::KernelProfile`]s capturing the differences
//! between the Linux versions the paper measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
pub mod kernel;
mod net;
pub mod process;
pub mod profile;
pub mod socket;
pub mod tcp;

pub use kernel::{Kernel, KernelEnv, KernelStats, NodeConfig};
pub use process::{Errno, Fd, Process, ProcessCtx, Proto, Step, SysResult, Syscall, Tid};
pub use profile::KernelProfile;
pub use socket::EventMask;
pub use tcp::{TcpConn, TcpOutput, TcpParams, TcpState, TcpStats};
