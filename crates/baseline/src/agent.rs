//! ns2-style TCP agents: packet-granular Reno sender and acking sink.
//!
//! "Traditional network simulators like ns2 focus on network protocols but
//! not the implementation of the OS network stack and application
//! interface" (§4.1). This module reproduces that abstraction level on
//! purpose: no handshake, no byte stream, no syscalls, no CPU — a sender
//! agent emits fixed-size packets under Reno congestion control, and a sink
//! acknowledges every packet. The delta between these agents and the full
//! `diablo-stack` endpoints *is* the paper's point.

use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::payload::{TcpFlags, TcpSegment};

/// Fixed agent packet payload (ns2's `packetSize_`).
pub const PKT_SIZE: u32 = 1460;

/// Output of one agent invocation.
#[derive(Debug, Default)]
pub struct AgentOut {
    /// Segments to transmit.
    pub segs: Vec<TcpSegment>,
    /// (Re-)arm the retransmission timer at this time.
    pub arm_rto: Option<SimTime>,
    /// Transfer completed (all packets acked).
    pub complete: bool,
}

/// Reno sender agent (ns2 `Agent/TCP`-alike): window in packets, cumulative
/// ACKs, fast retransmit on 3 dupacks, RTO with exponential backoff and a
/// 200 ms floor.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Source port stamped on segments.
    pub sport: u16,
    /// Destination port.
    pub dport: u16,
    goal: u64,
    next_pkt: u64,
    una: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    rto: SimDuration,
    rto_base: SimDuration,
    rto_gen: u64,
    rto_armed: bool,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    sample: Option<(u64, SimTime)>,
    /// Retransmitted packets.
    pub retransmits: u64,
    /// Timeouts fired.
    pub rtos: u64,
}

impl TcpSender {
    /// Creates an idle sender.
    pub fn new(sport: u16, dport: u16) -> Self {
        TcpSender {
            sport,
            dport,
            goal: 0,
            next_pkt: 0,
            una: 0,
            cwnd: 2.0,
            ssthresh: f64::MAX / 2.0,
            dupacks: 0,
            rto: SimDuration::from_secs(1),
            rto_base: SimDuration::from_millis(200),
            rto_gen: 0,
            rto_armed: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            sample: None,
            retransmits: 0,
            rtos: 0,
        }
    }

    /// Current retransmission-timer generation.
    pub fn rto_gen(&self) -> u64 {
        self.rto_gen
    }

    /// Packets acknowledged so far in the current transfer.
    pub fn acked(&self) -> u64 {
        self.una
    }

    /// `true` when no transfer is in progress.
    pub fn idle(&self) -> bool {
        self.una >= self.goal
    }

    /// Begins (or extends) a transfer by `pkts` packets.
    pub fn start_transfer(&mut self, pkts: u64, now: SimTime, out: &mut AgentOut) {
        self.goal += pkts;
        // ns2 restarts each transfer with the initial window.
        self.cwnd = self.cwnd.max(2.0);
        self.try_send(now, out);
    }

    fn make_pkt(&self, pkt: u64) -> TcpSegment {
        TcpSegment {
            src_port: self.sport,
            dst_port: self.dport,
            seq: pkt,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: u32::MAX,
            payload_len: PKT_SIZE,
            markers: Vec::new(),
        }
    }

    fn flight(&self) -> u64 {
        self.next_pkt.saturating_sub(self.una)
    }

    fn try_send(&mut self, now: SimTime, out: &mut AgentOut) {
        while self.next_pkt < self.goal && self.flight() < self.cwnd as u64 {
            let seg = self.make_pkt(self.next_pkt);
            if self.sample.is_none() {
                self.sample = Some((self.next_pkt, now));
            }
            self.next_pkt += 1;
            out.segs.push(seg);
        }
        if self.flight() > 0 && !self.rto_armed {
            self.arm(now, out);
        }
    }

    fn arm(&mut self, now: SimTime, out: &mut AgentOut) {
        self.rto_gen += 1;
        self.rto_armed = true;
        out.arm_rto = Some(now + self.rto);
    }

    /// Processes a cumulative ACK (`seg.ack` = next expected packet).
    pub fn on_ack(&mut self, seg: &TcpSegment, now: SimTime, out: &mut AgentOut) {
        let ack = seg.ack;
        if ack > self.una {
            if let Some((pkt, at)) = self.sample {
                if ack > pkt {
                    let s = now.saturating_duration_since(at);
                    match self.srtt {
                        None => {
                            self.srtt = Some(s);
                            self.rttvar = s / 2;
                        }
                        Some(v) => {
                            let diff = if v > s { v - s } else { s - v };
                            self.rttvar = (self.rttvar * 3 + diff) / 4;
                            self.srtt = Some((v * 7 + s) / 8);
                        }
                    }
                    self.rto = (self.srtt.expect("set above") + self.rttvar * 4)
                        .max(self.rto_base)
                        .min(SimDuration::from_secs(60));
                    self.sample = None;
                }
            }
            self.una = ack;
            self.next_pkt = self.next_pkt.max(ack);
            self.dupacks = 0;
            if self.cwnd < self.ssthresh {
                self.cwnd += 1.0;
            } else {
                self.cwnd += 1.0 / self.cwnd;
            }
            if self.flight() > 0 {
                self.arm(now, out);
            } else {
                self.rto_gen += 1;
                self.rto_armed = false;
            }
            if self.una >= self.goal {
                out.complete = true;
            }
            self.try_send(now, out);
        } else if ack == self.una && self.flight() > 0 {
            self.dupacks += 1;
            if self.dupacks == 3 {
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
                self.cwnd = self.ssthresh;
                self.retransmits += 1;
                self.sample = None;
                out.segs.push(self.make_pkt(self.una));
                self.arm(now, out);
            }
        }
    }

    /// Handles a retransmission-timeout with generation `gen`.
    pub fn on_rto(&mut self, gen: u64, now: SimTime, out: &mut AgentOut) {
        if gen != self.rto_gen || !self.rto_armed {
            return;
        }
        self.rto_armed = false;
        if self.flight() == 0 {
            return;
        }
        self.rtos += 1;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.next_pkt = self.una;
        self.dupacks = 0;
        self.sample = None;
        self.retransmits += 1;
        out.segs.push(self.make_pkt(self.una));
        self.next_pkt = self.una + 1;
        self.rto = (self.rto * 2).min(SimDuration::from_secs(60));
        self.arm(now, out);
    }
}

/// Acking sink agent (ns2 `Agent/TCPSink`): acknowledges every packet
/// cumulatively, tracking out-of-order arrivals.
#[derive(Debug, Clone, Default)]
pub struct TcpSink {
    rcv_nxt: u64,
    ooo: std::collections::BTreeSet<u64>,
    /// Packets delivered in order.
    pub delivered: u64,
}

impl TcpSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// In-order bytes delivered.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered * PKT_SIZE as u64
    }

    /// Processes a data packet, returning the ACK to send back.
    pub fn on_data(&mut self, seg: &TcpSegment) -> TcpSegment {
        let pkt = seg.seq;
        if pkt == self.rcv_nxt {
            self.rcv_nxt += 1;
            self.delivered += 1;
            while self.ooo.remove(&self.rcv_nxt) {
                self.rcv_nxt += 1;
                self.delivered += 1;
            }
        } else if pkt > self.rcv_nxt {
            self.ooo.insert(pkt);
        }
        TcpSegment {
            src_port: seg.dst_port,
            dst_port: seg.src_port,
            seq: 0,
            ack: self.rcv_nxt,
            flags: TcpFlags::ACK,
            wnd: u32::MAX,
            payload_len: 0,
            markers: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lossless in-memory pipe driving sender and sink directly.
    fn run_transfer(pkts: u64, drop: &[u64]) -> (TcpSender, TcpSink, u64) {
        let mut snd = TcpSender::new(1, 2);
        let mut sink = TcpSink::new();
        let mut now = SimTime::from_micros(1);
        let mut out = AgentOut::default();
        snd.start_transfer(pkts, now, &mut out);
        let mut sent: u64 = 0;
        let mut events: Vec<(SimTime, TcpSegment)> = Vec::new();
        let mut rto_at: Option<(SimTime, u64)> = out.arm_rto.map(|t| (t, snd.rto_gen()));
        let delay = SimDuration::from_micros(100);
        let mut queue: std::collections::VecDeque<TcpSegment> = out.segs.into();
        let mut steps = 0;
        while steps < 100_000 {
            steps += 1;
            if let Some(seg) = queue.pop_front() {
                let n = sent;
                sent += 1;
                if drop.contains(&n) {
                    continue;
                }
                events.push((now + delay, seg));
                continue;
            }
            // Advance to next event or RTO.
            let next_ev = events.first().map(|(t, _)| *t);
            let next_rto = rto_at.map(|(t, _)| t);
            now = match (next_ev, next_rto) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            let mut out = AgentOut::default();
            if next_ev == Some(now) {
                let (_, seg) = events.remove(0);
                if seg.payload_len > 0 {
                    let ack = sink.on_data(&seg);
                    events.push((now + delay, ack));
                } else {
                    snd.on_ack(&seg, now, &mut out);
                }
            } else if let Some((t, gen)) = rto_at {
                if t == now {
                    rto_at = None;
                    snd.on_rto(gen, now, &mut out);
                }
            }
            if let Some(t) = out.arm_rto {
                rto_at = Some((t, snd.rto_gen()));
            }
            queue.extend(out.segs);
            events.sort_by_key(|(t, _)| *t);
            if snd.idle() && queue.is_empty() && events.is_empty() {
                break;
            }
        }
        (snd, sink, sent)
    }

    #[test]
    fn lossless_transfer_completes() {
        let (snd, sink, sent) = run_transfer(50, &[]);
        assert!(snd.idle());
        assert_eq!(sink.delivered, 50);
        assert_eq!(sent, 50); // every data packet exactly once
        assert_eq!(snd.retransmits, 0);
    }

    #[test]
    fn single_loss_recovers() {
        let (snd, sink, _) = run_transfer(50, &[5]);
        assert!(snd.idle());
        assert_eq!(sink.delivered, 50);
        assert!(snd.retransmits >= 1);
    }

    #[test]
    fn tail_loss_needs_rto() {
        let (snd, sink, _) = run_transfer(3, &[2]);
        assert!(snd.idle());
        assert_eq!(sink.delivered, 3);
        assert!(snd.rtos >= 1);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let (snd, _, _) = run_transfer(200, &[]);
        assert!(snd.cwnd > 10.0, "cwnd {} should grow", snd.cwnd);
    }

    #[test]
    fn sink_handles_reorder() {
        let mut sink = TcpSink::new();
        let seg = |seq| TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq,
            ack: 0,
            flags: TcpFlags::ACK,
            wnd: 0,
            payload_len: PKT_SIZE,
            markers: Vec::new(),
        };
        assert_eq!(sink.on_data(&seg(0)).ack, 1);
        assert_eq!(sink.on_data(&seg(2)).ack, 1); // gap
        assert_eq!(sink.on_data(&seg(1)).ack, 3); // fills
        assert_eq!(sink.delivered, 3);
        assert_eq!(sink.delivered_bytes(), 3 * PKT_SIZE as u64);
    }
}
