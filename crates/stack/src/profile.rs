//! Kernel profiles: the timing and protocol parameters that distinguish one
//! Linux version from another.
//!
//! DIABLO runs unmodified Linux 2.6.39.3 and 3.5.7 kernels and finds that
//! the kernel version has a first-order effect on request latency at scale
//! (§4.2, Figure 14). Our modeled OS captures a kernel as a *profile*: the
//! per-operation CPU costs (in instructions, scaled by the server's
//! fixed-CPI timing model), scheduler parameters, NAPI configuration, and
//! TCP defaults. The 3.5.7 profile reflects the measured direction of
//! change — cheaper per-packet stack traversal, cheaper syscall entry,
//! lower wakeup overhead, and a smaller scheduling quantum — which is what
//! produces the halved average latency and thinner tail the paper reports.
//!
//! The TCP defaults are one [`TcpParams`] per profile
//! ([`KernelProfile::tcp`]), which the kernel clones for each connection.
//! Their values are written once, in [`TcpParams::default`] (`tcp.rs`):
//! the modeled kernels differ in CPU costs, not in transport defaults.

use crate::tcp::TcpParams;
use diablo_engine::time::SimDuration;

/// The congestion-control algorithm a kernel profile runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionControl {
    /// Loss-driven NewReno-style control (the modeled kernels' default).
    #[default]
    Reno,
    /// DCTCP: the receiver echoes ECN marks, the sender keeps a per-window
    /// marked-fraction estimate and cuts its window proportionally.
    /// Effective only on fabrics whose switches mark (see
    /// `SwitchConfig::ecn_threshold`); without marks it behaves as Reno.
    Dctcp,
}

impl CongestionControl {
    /// Name used in reports and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            CongestionControl::Reno => "reno",
            CongestionControl::Dctcp => "dctcp",
        }
    }
}

/// The token [`CongestionControl::name`] prints: `reno` or `dctcp`.
impl std::str::FromStr for CongestionControl {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        [CongestionControl::Reno, CongestionControl::Dctcp]
            .into_iter()
            .find(|cc| cc.name() == tok)
            .ok_or_else(|| format!("unknown congestion control `{tok}` (expected reno|dctcp)"))
    }
}

/// Per-operation instruction costs and policy parameters for a modeled
/// kernel.
///
/// Costs are in *instructions*; the server model converts them to time with
/// its fixed-CPI clock, so a 2 GHz server genuinely spends twice as long in
/// the stack as a 4 GHz one — the mechanism behind Figure 6(b).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Profile name for reports (e.g. `linux-2.6.39.3`).
    pub name: &'static str,

    // ----------------------------------------------------------- CPU costs
    /// Syscall entry/exit overhead.
    pub syscall_cost: u64,
    /// Extra cost of `fcntl(O_NONBLOCK)`; `accept4` avoids exactly one of
    /// these per accepted connection (memcached 1.4.17, Figure 15).
    pub fcntl_cost: u64,
    /// Context-switch cost (register/TLB/cache effects folded in).
    pub context_switch_cost: u64,
    /// Per-packet cost of RX protocol processing in softirq context.
    pub rx_packet_cost: u64,
    /// Per-packet cost of TX protocol processing (segment build + qdisc +
    /// driver handoff).
    pub tx_packet_cost: u64,
    /// Per-byte cost of copying received data from kernel to user space.
    /// Transmit is scatter/gather zero-copy (the NIC model supports it,
    /// §3.3) and copies nothing.
    pub copy_cost_per_byte_num: u64,
    /// Denominator for the per-byte copy cost (cost = num/den per byte),
    /// letting profiles express sub-instruction-per-byte copies.
    pub copy_cost_per_byte_den: u64,
    /// Fixed cost of one softirq dispatch (irq entry, NAPI bookkeeping).
    pub softirq_entry_cost: u64,
    /// Cost of waking a blocked task (enqueue, priority bookkeeping).
    pub wakeup_cost: u64,
    /// Cost of one epoll_wait returning (scan + copy events).
    pub epoll_wait_cost: u64,

    // ------------------------------------------------------------ scheduler
    /// Round-robin scheduling quantum.
    pub timeslice: SimDuration,
    /// NAPI poll budget (packets per softirq run).
    pub napi_budget: usize,

    // ------------------------------------------------------------------ TCP
    /// TCP defaults every connection the kernel opens or accepts starts
    /// from (Linux's IW10, 200 ms `RTO_min`, ... in every modeled kernel:
    /// see [`TcpParams::default`]).
    pub tcp: TcpParams,
}

impl KernelProfile {
    /// Linux 2.6.39.3 — the kernel used for most of the paper's
    /// experiments.
    pub fn linux_2_6_39() -> Self {
        KernelProfile {
            name: "linux-2.6.39.3",
            syscall_cost: 6_000,
            fcntl_cost: 3_000,
            context_switch_cost: 12_000,
            rx_packet_cost: 9_000,
            tx_packet_cost: 7_500,
            copy_cost_per_byte_num: 1,
            copy_cost_per_byte_den: 2,
            softirq_entry_cost: 4_000,
            wakeup_cost: 4_000,
            epoll_wait_cost: 5_000,
            timeslice: SimDuration::from_millis(4),
            napi_budget: 64,
            tcp: TcpParams::default(),
        }
    }

    /// Linux 3.5.7 — the newer kernel of Figure 14: leaner stack traversal,
    /// cheaper wakeups, finer scheduling.
    pub fn linux_3_5_7() -> Self {
        KernelProfile {
            name: "linux-3.5.7",
            syscall_cost: 4_500,
            fcntl_cost: 2_500,
            context_switch_cost: 9_000,
            rx_packet_cost: 5_500,
            tx_packet_cost: 4_500,
            copy_cost_per_byte_num: 2,
            copy_cost_per_byte_den: 5,
            softirq_entry_cost: 2_500,
            wakeup_cost: 2_000,
            epoll_wait_cost: 3_500,
            timeslice: SimDuration::from_millis(3),
            napi_budget: 64,
            tcp: TcpParams::default(),
        }
    }

    /// Per-byte copy instructions for `bytes` bytes.
    pub fn copy_cost(&self, bytes: u64) -> u64 {
        (bytes * self.copy_cost_per_byte_num).checked_div(self.copy_cost_per_byte_den).unwrap_or(0)
    }
}

/// The modeled kernels by short version: `2.6` or `3.5`.
impl std::str::FromStr for KernelProfile {
    type Err = String;

    fn from_str(tok: &str) -> Result<Self, String> {
        match tok {
            "2.6" => Ok(KernelProfile::linux_2_6_39()),
            "3.5" => Ok(KernelProfile::linux_3_5_7()),
            _ => Err(format!("unknown kernel `{tok}` (expected 2.6|3.5)")),
        }
    }
}

diablo_engine::impl_snap_enum!(CongestionControl { 0 => Reno, 1 => Dctcp });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn newer_kernel_is_cheaper_per_packet() {
        let old = KernelProfile::linux_2_6_39();
        let new = KernelProfile::linux_3_5_7();
        assert!(new.rx_packet_cost < old.rx_packet_cost);
        assert!(new.tx_packet_cost < old.tx_packet_cost);
        assert!(new.syscall_cost < old.syscall_cost);
        assert!(new.wakeup_cost < old.wakeup_cost);
        assert_eq!(new.tcp, old.tcp, "transport defaults unchanged");
    }

    #[test]
    fn copy_cost_scales() {
        let p = KernelProfile::linux_2_6_39();
        assert_eq!(p.copy_cost(0), 0);
        assert_eq!(p.copy_cost(1000), 500);
    }

    #[test]
    fn axis_tokens_parse_and_unknown_ones_list_the_accepted_set() {
        assert_eq!("2.6".parse::<KernelProfile>().unwrap(), KernelProfile::linux_2_6_39());
        assert_eq!("3.5".parse::<KernelProfile>().unwrap(), KernelProfile::linux_3_5_7());
        assert!("4.4".parse::<KernelProfile>().unwrap_err().contains("2.6|3.5"));
        for cc in [CongestionControl::Reno, CongestionControl::Dctcp] {
            assert_eq!(cc.name().parse::<CongestionControl>().unwrap(), cc);
        }
        assert!("cubic".parse::<CongestionControl>().unwrap_err().contains("reno|dctcp"));
        assert!("".parse::<CongestionControl>().is_err());
    }

    #[test]
    fn names_are_distinct() {
        assert_ne!(KernelProfile::linux_2_6_39().name, KernelProfile::linux_3_5_7().name);
    }
}
