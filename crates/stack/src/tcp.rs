//! TCP: a NewReno byte-stream engine.
//!
//! This is a full (if compact) TCP implementation operating on abstract
//! segments: three-way handshake, cumulative ACKs with duplicate-ACK fast
//! retransmit and NewReno fast recovery, retransmission timeout with
//! exponential backoff and a configurable `RTO_min` (the 200 ms Linux
//! default whose interaction with shallow switch buffers produces TCP
//! Incast, §4.1), Jacobson/Karn RTT estimation, delayed ACKs, receiver
//! flow control with window updates, and FIN/RST teardown. There is no
//! Nagle's algorithm: both modeled applications set `TCP_NODELAY`, so a
//! segment leaves as soon as the window admits it.
//!
//! Payload *contents* are never stored: the stream is tracked as byte
//! ranges plus [`StreamMarker`]s recording where application messages
//! complete, so retransmissions, reordering and reassembly are exact while
//! memory stays O(outstanding messages).
//!
//! The engine is a pure state machine: callers feed it segments and timer
//! expirations, and it accumulates emitted segments and notifications in a
//! [`TcpOutput`]. The kernel (`crate::kernel`) wires it to sockets, CPU
//! cost accounting and the NIC, and starts each connection from a clone
//! of its profile's [`TcpParams`], whose defaults live in
//! [`TcpParams::default`] here.

use crate::profile::CongestionControl;
use diablo_engine::time::{SimDuration, SimTime};
use diablo_net::addr::SockAddr;
use diablo_net::payload::{AppMessage, StreamMarker, TcpFlags, TcpSegment, TCP_MSS};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Transport parameters for one connection, and a kernel profile's TCP
/// defaults ([`KernelProfile::tcp`](crate::profile::KernelProfile::tcp)).
#[derive(Debug, Clone, PartialEq)]
pub struct TcpParams {
    /// Maximum segment size (payload bytes per segment).
    pub mss: u32,
    /// Send buffer capacity in bytes (default 128 KiB).
    pub sndbuf: u32,
    /// Receive buffer capacity in bytes, which bounds the advertised
    /// window (default 128 KiB).
    pub rcvbuf: u32,
    /// Initial congestion window in segments (IW10 in both modeled
    /// kernels).
    pub initial_cwnd_segments: u32,
    /// Minimum retransmission timeout (Linux default 200 ms — the classic
    /// Incast ingredient).
    pub rto_min: SimDuration,
    /// Initial RTO before any RTT sample (Linux: 1 s).
    pub rto_initial: SimDuration,
    /// Maximum RTO backoff ceiling (60 s).
    pub rto_max: SimDuration,
    /// Consecutive RTOs tolerated before the connection is aborted with a
    /// timeout (Linux `tcp_retries2`, 15); the next expiry closes the
    /// connection and surfaces `ETIMEDOUT` instead of retrying forever.
    pub max_rto_retries: u32,
    /// Delayed-ACK timeout (40 ms).
    pub delayed_ack: SimDuration,
    /// Congestion-control algorithm (`net.ipv4.tcp_congestion_control`,
    /// Reno by default). DCTCP layers an ECN-driven proportional window
    /// cut on top of the NewReno machinery (loss handling, RTO, fast
    /// retransmit are unchanged).
    pub cc: CongestionControl,
}

impl Default for TcpParams {
    fn default() -> Self {
        TcpParams {
            mss: TCP_MSS,
            sndbuf: 128 * 1024,
            rcvbuf: 128 * 1024,
            initial_cwnd_segments: 10,
            rto_min: SimDuration::from_millis(200),
            rto_initial: SimDuration::from_secs(1),
            rto_max: SimDuration::from_secs(60),
            max_rto_retries: 15,
            delayed_ack: SimDuration::from_millis(40),
            cc: CongestionControl::Reno,
        }
    }
}

/// Connection lifecycle states (TIME_WAIT omitted: port reuse is managed by
/// the kernel's connection table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Client sent SYN.
    SynSent,
    /// Server answered SYN-ACK.
    SynRcvd,
    /// Data flows.
    Established,
    /// Both directions closed or the connection was reset.
    Closed,
}

/// Per-connection counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStats {
    /// Segments received.
    pub segs_in: u64,
    /// Segments emitted.
    pub segs_out: u64,
    /// Payload bytes received in order.
    pub bytes_in: u64,
    /// Payload bytes sent (first transmissions).
    pub bytes_out: u64,
    /// All retransmitted segments.
    pub retransmits: u64,
    /// Fast retransmits (3 duplicate ACKs).
    pub fast_retransmits: u64,
    /// Retransmission timeouts fired.
    pub rtos: u64,
}

/// Accumulates the externally visible effects of one engine call.
#[derive(Debug, Default)]
pub struct TcpOutput {
    /// Segments to transmit, in order.
    pub segs: Vec<TcpSegment>,
    /// Arm (replace) the retransmission timer at this absolute time: the
    /// caller delivers [`TcpConn::on_rto_timer`] then, unless
    /// [`TcpConn::rto_deadline`] has moved by then.
    pub arm_rto: Option<SimTime>,
    /// Arm the delayed-ACK timer at this absolute time: the caller
    /// delivers [`TcpConn::on_delack_timer`] then.
    pub arm_delack: Option<SimTime>,
    /// New data or EOF became available to the application.
    pub readable: bool,
    /// Send-buffer space was freed.
    pub writable: bool,
    /// The handshake completed.
    pub established: bool,
    /// The connection was reset by the peer.
    pub reset: bool,
    /// The connection is fully closed (both FINs exchanged and acked).
    pub closed: bool,
}

/// `app_send` failed: the connection cannot accept the message right now
/// (send buffer full, not yet established, or already closing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendNotReady;

impl core::fmt::Display for SendNotReady {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "send buffer full or connection not writable")
    }
}

impl std::error::Error for SendNotReady {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RttSample {
    end_seq: u64,
    sent_at: SimTime,
}

/// One TCP connection endpoint. See the module docs.
#[derive(Debug)]
pub struct TcpConn {
    params: TcpParams,
    /// Local endpoint (ports are stamped on every segment).
    pub local: SockAddr,
    /// Remote endpoint.
    pub remote: SockAddr,
    state: TcpState,

    // ------------------------------------------------------------- sender
    /// First unacknowledged stream offset.
    snd_una: u64,
    /// Next offset to transmit.
    snd_nxt: u64,
    /// Highest offset ever transmitted (may exceed `snd_nxt` after an RTO
    /// rewind; acks up to here are valid).
    snd_max: u64,
    /// End of application data buffered for sending (stream offset).
    buf_end: u64,
    /// Markers for buffered/unacked messages (ascending `end_offset`).
    tx_markers: VecDeque<StreamMarker>,
    /// Peer's advertised receive window.
    rwnd: u64,
    cwnd: u64,
    ssthresh: u64,
    dupacks: u32,
    /// NewReno recovery point (`snd_nxt` at loss detection).
    recover: Option<u64>,
    fin_queued: bool,
    /// Offset of our FIN, once transmitted.
    fin_seq: Option<u64>,

    // -------------------------------------------------------------- DCTCP
    /// Running estimate of the fraction of marked bytes (DCTCP's α),
    /// updated once per window with gain 1/16. Starts at 1.0 so the first
    /// marked window reacts as strongly as a Reno halving.
    dctcp_alpha: f64,
    /// Bytes newly acknowledged in the current observation window.
    dctcp_acked: u64,
    /// Of those, bytes acknowledged by ECE-bearing ACKs.
    dctcp_marked: u64,
    /// Stream offset ending the current observation window (≈ one RTT:
    /// the `snd_nxt` captured when the previous window closed).
    dctcp_window_end: u64,

    // ---------------------------------------------------------------- RTO
    rto: SimDuration,
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rtt_sample: Option<RttSample>,
    /// When the retransmission timer expires; `None` when disarmed.
    rto_deadline: Option<SimTime>,
    /// RTO expirations since the last forward progress; past
    /// `max_rto_retries` the connection is abandoned.
    consecutive_rtos: u32,
    /// The connection died of retransmission timeout (vs. peer reset).
    timed_out: bool,
    /// When our SYN/SYN-ACK went out (seeds the RTT estimate from the
    /// handshake, as Linux does).
    handshake_sent: Option<SimTime>,

    // ----------------------------------------------------------- receiver
    /// Next expected in-order offset.
    rcv_nxt: u64,
    /// Out-of-order payload ranges: start -> end (exclusive).
    ooo: BTreeMap<u64, u64>,
    /// Messages completing at a given stream offset (deduplicated).
    rx_markers: BTreeMap<u64, AppMessage>,
    /// Completed in-order messages awaiting the application.
    ready_msgs: VecDeque<AppMessage>,
    /// Highest marker offset already pushed to `ready_msgs`.
    delivered_up_to: u64,
    /// Stream offset consumed by the application (window base).
    consumed: u64,
    /// Peer's FIN offset, once received.
    remote_fin: Option<u64>,
    /// Our FIN has been acknowledged.
    fin_acked: bool,
    /// When the delayed ACK is due; `None` when none is armed.
    delack_deadline: Option<SimTime>,
    ack_owed: bool,
    segs_since_ack: u32,
    /// Last advertised window (to detect zero-window openings).
    last_adv_wnd: u64,
    /// DCTCP receiver state: the CE value of the most recent data segment;
    /// every outgoing ACK echoes it as ECE, and a CE *change* forces an
    /// immediate ACK so the sender sees exact mark boundaries.
    ce_state: bool,

    stats: TcpStats,
}

/// Stream offset where application data begins (offset 0 is the SYN).
const DATA_START: u64 = 1;

impl TcpConn {
    fn new(params: TcpParams, local: SockAddr, remote: SockAddr, state: TcpState) -> Self {
        let cwnd = params.mss as u64 * params.initial_cwnd_segments as u64;
        let rto = params.rto_initial;
        TcpConn {
            local,
            remote,
            state,
            snd_una: 0,
            snd_nxt: 0,
            snd_max: 0,
            buf_end: DATA_START,
            tx_markers: VecDeque::new(),
            rwnd: params.rcvbuf as u64,
            cwnd,
            ssthresh: u64::MAX / 2,
            dupacks: 0,
            recover: None,
            fin_queued: false,
            fin_seq: None,
            dctcp_alpha: 1.0,
            dctcp_acked: 0,
            dctcp_marked: 0,
            dctcp_window_end: DATA_START,
            rto,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rtt_sample: None,
            rto_deadline: None,
            consecutive_rtos: 0,
            timed_out: false,
            handshake_sent: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rx_markers: BTreeMap::new(),
            ready_msgs: VecDeque::new(),
            delivered_up_to: DATA_START,
            consumed: DATA_START,
            remote_fin: None,
            fin_acked: false,
            delack_deadline: None,
            ack_owed: false,
            segs_since_ack: 0,
            last_adv_wnd: params.rcvbuf as u64,
            ce_state: false,
            stats: TcpStats::default(),
            params,
        }
    }

    /// Opens a client connection: emits the SYN and arms the RTO.
    pub fn client(
        params: TcpParams,
        local: SockAddr,
        remote: SockAddr,
        now: SimTime,
        out: &mut TcpOutput,
    ) -> Self {
        let mut c = Self::new(params, local, remote, TcpState::SynSent);
        let syn = c.make_segment(0, 0, TcpFlags::SYN, Vec::new());
        c.snd_nxt = 1;
        c.handshake_sent = Some(now);
        c.push_seg(syn, out);
        c.arm_rto(now, out);
        c
    }

    /// Creates the server-side endpoint from a received SYN: emits the
    /// SYN-ACK and arms the RTO.
    pub fn server_from_syn(
        params: TcpParams,
        local: SockAddr,
        remote: SockAddr,
        syn: &TcpSegment,
        now: SimTime,
        out: &mut TcpOutput,
    ) -> Self {
        debug_assert!(syn.flags.syn && !syn.flags.ack);
        let mut c = Self::new(params, local, remote, TcpState::SynRcvd);
        c.rcv_nxt = syn.seq_end();
        let synack = c.make_segment(0, 0, TcpFlags::SYN_ACK, Vec::new());
        c.snd_nxt = 1;
        c.handshake_sent = Some(now);
        c.push_seg(synack, out);
        c.arm_rto(now, out);
        c
    }

    // ---------------------------------------------------------- accessors

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Counters.
    pub fn stats(&self) -> TcpStats {
        self.stats
    }

    /// When the retransmission timer expires, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// When the delayed ACK is due, if armed.
    pub fn delack_deadline(&self) -> Option<SimTime> {
        self.delack_deadline
    }

    /// `true` once the connection was abandoned after `max_rto_retries`
    /// consecutive retransmission timeouts (maps to `ETIMEDOUT`).
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }

    /// Free send-buffer bytes.
    pub fn sndbuf_free(&self) -> u64 {
        (self.params.sndbuf as u64).saturating_sub(self.buf_end - self.snd_una)
    }

    /// `true` when the application can read (messages ready or EOF).
    pub fn readable(&self) -> bool {
        !self.ready_msgs.is_empty() || self.eof_visible() || self.state == TcpState::Closed
    }

    /// `true` when a send of up to `bytes` would be accepted.
    pub fn writable(&self, bytes: u64) -> bool {
        self.state == TcpState::Established && self.sndbuf_free() >= bytes
    }

    /// Unacknowledged bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// Congestion window in bytes (for instrumentation).
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn eof_visible(&self) -> bool {
        matches!(self.remote_fin, Some(f) if self.rcv_nxt > f)
    }

    // -------------------------------------------------------- application

    /// Appends one application message to the stream.
    ///
    /// # Errors
    ///
    /// Returns [`SendNotReady`] when the send buffer lacks space for the
    /// whole message (no partial writes; the kernel blocks or reports
    /// `EWOULDBLOCK`) or the connection is not writable.
    pub fn app_send(
        &mut self,
        msg: AppMessage,
        now: SimTime,
        out: &mut TcpOutput,
    ) -> Result<(), SendNotReady> {
        if self.state != TcpState::Established || self.fin_queued {
            return Err(SendNotReady);
        }
        let len = msg.len.max(1) as u64;
        if self.sndbuf_free() < len {
            return Err(SendNotReady);
        }
        self.buf_end += len;
        self.tx_markers.push_back(StreamMarker { end_offset: self.buf_end, msg });
        self.try_send(now, out);
        Ok(())
    }

    /// Removes up to `max` completed messages; the bool is the EOF
    /// indicator (peer closed and everything delivered).
    pub fn app_recv(
        &mut self,
        max: usize,
        now: SimTime,
        out: &mut TcpOutput,
    ) -> (Vec<AppMessage>, bool) {
        let n = max.min(self.ready_msgs.len());
        let msgs: Vec<AppMessage> = self.ready_msgs.drain(..n).collect();
        let _ = now;
        // Advance the window base past the consumed messages: pop the
        // lowest-offset markers, one per delivered message.
        for _ in 0..msgs.len() {
            if let Some((&off, _)) = self.rx_markers.iter().next() {
                self.rx_markers.remove(&off);
                self.consumed = off;
            }
        }
        let new_wnd = self.adv_wnd();
        if self.last_adv_wnd == 0 && new_wnd > 0 {
            // Window update so the sender's persist logic can resume.
            self.emit_ack(out);
        }
        let eof = self.ready_msgs.is_empty() && self.eof_visible();
        (msgs, eof)
    }

    /// Half-closes the sending direction (queues a FIN after buffered
    /// data).
    pub fn app_close(&mut self, now: SimTime, out: &mut TcpOutput) {
        if self.fin_queued || matches!(self.state, TcpState::Closed) {
            return;
        }
        self.fin_queued = true;
        if self.state == TcpState::Established {
            self.try_send(now, out);
        }
    }

    /// Aborts the connection, emitting an RST.
    pub fn abort(&mut self, out: &mut TcpOutput) {
        if self.state != TcpState::Closed {
            let rst = self.make_segment(self.snd_nxt, 0, TcpFlags::RST, Vec::new());
            self.push_seg(rst, out);
            self.state = TcpState::Closed;
            self.disarm_rto();
            out.closed = true;
        }
    }

    // ------------------------------------------------------------- timers

    /// Handles the retransmission timer firing at `now`: nothing happens
    /// unless it is armed and due by then.
    pub fn on_rto_timer(&mut self, now: SimTime, out: &mut TcpOutput) {
        if self.rto_deadline.is_none_or(|due| due > now) || self.state == TcpState::Closed {
            return;
        }
        self.rto_deadline = None;
        self.stats.rtos += 1;
        // Karn: invalidate the RTT sample across retransmission.
        self.rtt_sample = None;
        self.consecutive_rtos += 1;
        if self.consecutive_rtos > self.params.max_rto_retries {
            self.timeout_abort(out);
            return;
        }
        match self.state {
            TcpState::SynSent => {
                let syn = self.make_segment(0, 0, TcpFlags::SYN, Vec::new());
                self.handshake_sent = None; // Karn: no sample across rexmit
                self.push_seg(syn, out);
                self.stats.retransmits += 1;
            }
            TcpState::SynRcvd => {
                let synack = self.make_segment(0, 0, TcpFlags::SYN_ACK, Vec::new());
                self.handshake_sent = None;
                self.push_seg(synack, out);
                self.stats.retransmits += 1;
            }
            TcpState::Established => {
                let flight = self.flight();
                if flight == 0 && !self.has_unsent_data() {
                    return; // spurious
                }
                self.ssthresh = (flight / 2).max(2 * self.params.mss as u64);
                self.cwnd = self.params.mss as u64;
                self.dupacks = 0;
                self.recover = None;
                // Go-back-N from snd_una: retransmit one segment now.
                self.snd_nxt = self.snd_una;
                if self.fin_seq.is_some_and(|f| f >= self.snd_nxt) {
                    self.fin_seq = None; // FIN will be re-sent past the rewind
                }
                self.retransmit_one(out);
            }
            TcpState::Closed => {}
        }
        // Exponential backoff.
        self.rto = (self.rto * 2).min(self.params.rto_max);
        self.arm_rto(now, out);
    }

    /// Abandons the connection after too many consecutive RTOs. The peer is
    /// presumed unreachable, so no RST is emitted (there is nobody to hear
    /// it); the application sees `ETIMEDOUT`.
    fn timeout_abort(&mut self, out: &mut TcpOutput) {
        self.state = TcpState::Closed;
        self.timed_out = true;
        self.disarm_rto();
        out.closed = true;
        out.readable = true;
        out.writable = true;
    }

    /// Handles the delayed-ACK timer firing at `now`: nothing happens
    /// unless it is armed and due by then.
    pub fn on_delack_timer(&mut self, now: SimTime, out: &mut TcpOutput) {
        if self.delack_deadline.is_none_or(|due| due > now) {
            return;
        }
        self.delack_deadline = None;
        if self.ack_owed {
            self.emit_ack(out);
        }
    }

    // ----------------------------------------------------------- segments

    /// Processes one arriving segment; `ce` is the IP header's Congestion
    /// Experienced bit (set by a marking switch en route).
    pub fn on_segment(&mut self, now: SimTime, seg: TcpSegment, ce: bool, out: &mut TcpOutput) {
        if self.state == TcpState::Closed {
            return;
        }
        self.stats.segs_in += 1;
        // DCTCP receiver: track the CE state of the data stream; a state
        // change forces the next ACK out immediately so the sender's
        // marked-byte accounting stays exact.
        if self.params.cc == CongestionControl::Dctcp
            && (seg.payload_len > 0 || seg.flags.fin)
            && ce != self.ce_state
        {
            self.ce_state = ce;
            self.segs_since_ack = 2;
        }

        if seg.flags.rst {
            self.state = TcpState::Closed;
            self.disarm_rto();
            out.reset = true;
            out.closed = true;
            out.readable = true;
            return;
        }

        match self.state {
            TcpState::SynSent => {
                if seg.flags.syn && seg.flags.ack && seg.ack == 1 {
                    self.snd_una = 1;
                    self.rcv_nxt = seg.seq_end();
                    self.rwnd = seg.wnd as u64;
                    self.state = TcpState::Established;
                    self.consecutive_rtos = 0;
                    self.disarm_rto();
                    if let Some(at) = self.handshake_sent.take() {
                        self.update_rtt(now.saturating_duration_since(at));
                    }
                    out.established = true;
                    self.emit_ack(out);
                    self.try_send(now, out);
                }
            }
            TcpState::SynRcvd => {
                if seg.flags.ack && seg.ack >= 1 {
                    self.snd_una = 1;
                    self.rwnd = seg.wnd as u64;
                    self.state = TcpState::Established;
                    self.consecutive_rtos = 0;
                    self.disarm_rto();
                    if let Some(at) = self.handshake_sent.take() {
                        self.update_rtt(now.saturating_duration_since(at));
                    }
                    out.established = true;
                    // The handshake ACK may already carry data.
                    if seg.payload_len > 0 || seg.flags.fin {
                        self.rx_data(now, &seg, out);
                    }
                    self.try_send(now, out);
                }
            }
            TcpState::Established => {
                if seg.flags.ack {
                    self.rx_ack(now, &seg, out);
                }
                if seg.payload_len > 0 || seg.flags.fin {
                    self.rx_data(now, &seg, out);
                }
                if self.state == TcpState::Established {
                    self.try_send(now, out);
                    self.maybe_close(out);
                }
            }
            TcpState::Closed => {}
        }
    }

    fn rx_ack(&mut self, now: SimTime, seg: &TcpSegment, out: &mut TcpOutput) {
        let ack = seg.ack;
        self.rwnd = seg.wnd as u64;
        if ack > self.snd_max {
            return; // acks data never sent; ignore
        }
        if ack > self.snd_una {
            let acked_bytes = ack - self.snd_una;
            self.snd_una = ack;
            self.consecutive_rtos = 0;
            // After a go-back-N rewind the ack may cover data beyond
            // snd_nxt; skip re-sending what the receiver already has.
            self.snd_nxt = self.snd_nxt.max(ack);
            self.dupacks = 0;
            // RTT sampling (Karn-safe).
            if let Some(s) = self.rtt_sample {
                if ack >= s.end_seq {
                    let sample = now.saturating_duration_since(s.sent_at);
                    self.update_rtt(sample);
                    self.rtt_sample = None;
                }
            }
            if let Some(recover) = self.recover {
                if ack >= recover {
                    // Full ack: leave recovery.
                    self.recover = None;
                    self.cwnd = self.ssthresh;
                } else {
                    // Partial ack: retransmit the next hole, stay in
                    // recovery (NewReno).
                    self.snd_nxt = self.snd_nxt.max(self.snd_una);
                    self.retransmit_hole(out);
                }
            } else {
                // Normal window growth (byte-counting).
                let mss = self.params.mss as u64;
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked_bytes.min(mss);
                } else {
                    self.cwnd += (mss * mss / self.cwnd).max(1);
                }
            }
            if self.params.cc == CongestionControl::Dctcp {
                self.dctcp_on_ack(acked_bytes, seg.flags.ece);
            }
            if self.fin_seq.is_some_and(|f| ack > f) {
                self.fin_acked = true;
            }
            // Buffer space freed.
            self.drop_acked_tx_markers();
            out.writable = true;
            // Re-arm or disarm the RTO.
            if self.flight() > 0 {
                self.arm_rto(now, out);
            } else {
                self.disarm_rto();
                self.rto = self.rto_from_estimate();
            }
        } else if ack == self.snd_una
            && seg.payload_len == 0
            && !seg.flags.syn
            && !seg.flags.fin
            && self.flight() > 0
        {
            // Duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == 3 && self.recover.is_none() {
                self.stats.fast_retransmits += 1;
                let flight = self.flight();
                self.ssthresh = (flight / 2).max(2 * self.params.mss as u64);
                self.recover = Some(self.snd_nxt);
                self.cwnd = self.ssthresh + 3 * self.params.mss as u64;
                self.retransmit_hole(out);
                self.arm_rto(now, out);
            } else if self.dupacks > 3 && self.recover.is_some() {
                // Window inflation per extra dupack.
                self.cwnd += self.params.mss as u64;
            }
        }
    }

    /// DCTCP sender: accumulate acked/ECE-marked bytes and, once per
    /// congestion window, fold the marked fraction F into the EWMA
    /// `alpha = (1 - g)*alpha + g*F` (g = 1/16) and cut the window
    /// proportionally — `cwnd *= 1 - alpha/2` — if the window saw any marks.
    /// Loss handling (fast retransmit, RTO) stays pure NewReno.
    fn dctcp_on_ack(&mut self, acked_bytes: u64, ece: bool) {
        self.dctcp_acked += acked_bytes;
        if ece {
            self.dctcp_marked += acked_bytes;
        }
        if self.snd_una >= self.dctcp_window_end {
            if self.dctcp_acked > 0 {
                let f = self.dctcp_marked as f64 / self.dctcp_acked as f64;
                self.dctcp_alpha = self.dctcp_alpha * (15.0 / 16.0) + f / 16.0;
                if self.dctcp_marked > 0 && self.recover.is_none() {
                    let floor = 2 * self.params.mss as u64;
                    self.cwnd =
                        ((self.cwnd as f64 * (1.0 - self.dctcp_alpha / 2.0)) as u64).max(floor);
                    self.ssthresh = self.cwnd;
                }
            }
            self.dctcp_acked = 0;
            self.dctcp_marked = 0;
            self.dctcp_window_end = self.snd_nxt;
        }
    }

    fn rx_data(&mut self, _now: SimTime, seg: &TcpSegment, out: &mut TcpOutput) {
        let start = seg.seq;
        let len = seg.payload_len as u64;
        let end = start + len;
        // Record markers (idempotent across retransmissions).
        for m in &seg.markers {
            self.rx_markers.entry(m.end_offset).or_insert(m.msg);
        }
        if seg.flags.fin {
            let fin_pos = start + len; // FIN occupies the offset after data
            self.remote_fin.get_or_insert(fin_pos);
        }
        let mut advanced = false;
        if len > 0 {
            if end <= self.rcv_nxt {
                // Pure duplicate: ack immediately.
                self.emit_ack(out);
                return;
            }
            if start > self.rcv_nxt {
                // Out of order: stash range, duplicate-ack.
                self.insert_ooo(start, end);
                self.emit_ack(out);
                return;
            }
            // In-order (possibly overlapping) data.
            self.stats.bytes_in += end - self.rcv_nxt;
            self.rcv_nxt = end;
            advanced = true;
            // Pull any contiguous out-of-order ranges.
            while let Some((&s, &e)) = self.ooo.range(..=self.rcv_nxt).next_back() {
                if s > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&s);
                if e > self.rcv_nxt {
                    self.rcv_nxt = e;
                }
            }
        }
        // Consume the FIN when it is next in sequence.
        if let Some(f) = self.remote_fin {
            if self.rcv_nxt == f {
                self.rcv_nxt = f + 1;
                advanced = true;
                self.segs_since_ack = 2; // force immediate ack of FIN
            }
        }
        if advanced {
            self.deliver_ready(out);
            self.ack_policy(_now, out);
            self.maybe_close(out);
        }
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        // Merge overlapping ranges conservatively.
        let mut s = start;
        let mut e = end;
        let overlapping: Vec<u64> = self
            .ooo
            .range(..=e)
            .filter(|(&rs, &re)| re >= s && rs <= e)
            .map(|(&rs, _)| rs)
            .collect();
        for rs in overlapping {
            let re = self.ooo.remove(&rs).expect("range vanished");
            s = s.min(rs);
            e = e.max(re);
        }
        self.ooo.insert(s, e);
    }

    fn deliver_ready(&mut self, out: &mut TcpOutput) {
        // Move completed in-order messages to the application queue.
        let ready: Vec<(u64, AppMessage)> = self
            .rx_markers
            .range(..=self.rcv_nxt)
            .filter(|(&off, _)| off > self.delivered_up_to)
            .map(|(&off, m)| (off, *m))
            .collect();
        for (off, m) in ready {
            self.ready_msgs.push_back(m);
            self.delivered_up_to = off;
            // Marker retained until app_recv advances `consumed`.
        }
        if !self.ready_msgs.is_empty() || self.eof_visible() {
            out.readable = true;
        }
    }

    fn ack_policy(&mut self, now: SimTime, out: &mut TcpOutput) {
        self.ack_owed = true;
        self.segs_since_ack += 1;
        if self.segs_since_ack >= 2 || !self.ooo.is_empty() {
            self.emit_ack(out);
        } else if self.delack_deadline.is_none() {
            let at = now + self.params.delayed_ack;
            self.delack_deadline = Some(at);
            out.arm_delack = Some(at);
        }
    }

    // -------------------------------------------------------- transmission

    fn has_unsent_data(&self) -> bool {
        self.snd_nxt < self.buf_end || (self.fin_queued && self.fin_seq.is_none())
    }

    fn try_send(&mut self, now: SimTime, out: &mut TcpOutput) {
        if self.state != TcpState::Established {
            return;
        }
        let mss = self.params.mss as u64;
        loop {
            let window = self.cwnd.min(self.rwnd.max(if self.flight() == 0 { mss } else { 0 }));
            let budget = window.saturating_sub(self.flight());
            let avail = self.buf_end.saturating_sub(self.snd_nxt.max(DATA_START));
            if self.snd_nxt < DATA_START {
                break; // handshake incomplete
            }
            let fin_due = self.fin_queued && self.fin_seq.is_none() && avail == 0;
            if avail == 0 && !fin_due {
                break;
            }
            if avail > 0 {
                let len = avail.min(mss).min(budget);
                if len == 0 {
                    break;
                }
                let seq = self.snd_nxt;
                let markers = self.markers_in(seq, seq + len);
                let fin_here = self.fin_queued && seq + len == self.buf_end && budget > len;
                let flags = if fin_here { TcpFlags::FIN_ACK } else { TcpFlags::ACK };
                let seg = self.make_segment(seq, len as u32, flags, markers);
                self.snd_nxt = seq + len + u64::from(fin_here);
                if fin_here {
                    self.fin_seq = Some(seq + len);
                }
                self.stats.bytes_out += len;
                if self.rtt_sample.is_none() {
                    self.rtt_sample = Some(RttSample { end_seq: self.snd_nxt, sent_at: now });
                }
                self.push_seg(seg, out);
                self.arm_rto_if_unarmed(now, out);
            } else if fin_due {
                if budget == 0 && self.flight() > 0 {
                    break;
                }
                let seq = self.snd_nxt;
                let seg = self.make_segment(seq, 0, TcpFlags::FIN_ACK, Vec::new());
                self.snd_nxt = seq + 1;
                self.fin_seq = Some(seq);
                self.push_seg(seg, out);
                self.arm_rto_if_unarmed(now, out);
                break;
            }
        }
    }

    /// Retransmits one segment starting at `snd_una` (the hole).
    fn retransmit_hole(&mut self, out: &mut TcpOutput) {
        let mss = self.params.mss as u64;
        let seq = self.snd_una;
        if let Some(fin) = self.fin_seq {
            if seq == fin {
                let seg = self.make_segment(seq, 0, TcpFlags::FIN_ACK, Vec::new());
                self.stats.retransmits += 1;
                self.push_seg(seg, out);
                return;
            }
        }
        let end = (seq + mss).min(self.buf_end).min(self.snd_nxt.max(seq + 1));
        if end <= seq {
            return;
        }
        let len = end - seq;
        let markers = self.markers_in(seq, end);
        let seg = self.make_segment(seq, len as u32, TcpFlags::ACK, markers);
        self.stats.retransmits += 1;
        self.rtt_sample = None; // Karn
        self.push_seg(seg, out);
    }

    /// After an RTO: retransmit the first segment and restart from
    /// `snd_una` (go-back-N; `snd_nxt` was rewound by the caller).
    fn retransmit_one(&mut self, out: &mut TcpOutput) {
        let mss = self.params.mss as u64;
        let seq = self.snd_una;
        if seq >= self.buf_end {
            // Only a FIN outstanding.
            if self.fin_queued {
                let seg = self.make_segment(seq, 0, TcpFlags::FIN_ACK, Vec::new());
                self.fin_seq = Some(seq);
                self.snd_nxt = seq + 1;
                self.stats.retransmits += 1;
                self.push_seg(seg, out);
            }
            return;
        }
        let end = (seq + mss).min(self.buf_end);
        let len = end - seq;
        let markers = self.markers_in(seq, end);
        let seg = self.make_segment(seq, len as u32, TcpFlags::ACK, markers);
        self.snd_nxt = end;
        self.stats.retransmits += 1;
        self.push_seg(seg, out);
    }

    fn markers_in(&self, start: u64, end: u64) -> Vec<StreamMarker> {
        self.tx_markers
            .iter()
            .filter(|m| m.end_offset > start && m.end_offset <= end)
            .copied()
            .collect()
    }

    fn drop_acked_tx_markers(&mut self) {
        while let Some(front) = self.tx_markers.front() {
            if front.end_offset <= self.snd_una {
                self.tx_markers.pop_front();
            } else {
                break;
            }
        }
    }

    fn maybe_close(&mut self, out: &mut TcpOutput) {
        let local_done = self.fin_acked;
        let remote_done = self.eof_visible();
        if local_done && remote_done && self.state != TcpState::Closed {
            self.state = TcpState::Closed;
            self.disarm_rto();
            out.closed = true;
        }
    }

    // ------------------------------------------------------------ helpers

    fn adv_wnd(&self) -> u64 {
        (self.params.rcvbuf as u64).saturating_sub(self.rcv_nxt.saturating_sub(self.consumed))
    }

    fn make_segment(
        &mut self,
        seq: u64,
        payload_len: u32,
        mut flags: TcpFlags,
        markers: Vec<StreamMarker>,
    ) -> TcpSegment {
        let wnd = self.adv_wnd().min(u32::MAX as u64) as u32;
        self.last_adv_wnd = wnd as u64;
        // DCTCP receiver half: every ACK echoes the current CE state, so the
        // sender can reconstruct exactly which bytes were marked.
        if self.params.cc == CongestionControl::Dctcp && flags.ack {
            flags.ece = self.ce_state;
        }
        TcpSegment {
            src_port: self.local.port,
            dst_port: self.remote.port,
            seq,
            ack: self.rcv_nxt,
            flags,
            wnd,
            payload_len,
            markers,
        }
    }

    fn push_seg(&mut self, seg: TcpSegment, out: &mut TcpOutput) {
        self.snd_max = self.snd_max.max(self.snd_nxt).max(seg.seq_end());
        // Any emitted segment carries the current cumulative ack.
        if seg.flags.ack {
            self.ack_owed = false;
            self.segs_since_ack = 0;
        }
        self.stats.segs_out += 1;
        out.segs.push(seg);
    }

    fn emit_ack(&mut self, out: &mut TcpOutput) {
        let ack = self.make_segment(self.snd_nxt, 0, TcpFlags::ACK, Vec::new());
        self.push_seg(ack, out);
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if srtt > sample { srtt - sample } else { sample - srtt };
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        self.rto = self.rto_from_estimate();
    }

    fn rto_from_estimate(&self) -> SimDuration {
        match self.srtt {
            Some(srtt) => {
                (srtt + self.rttvar * 4).max(self.params.rto_min).min(self.params.rto_max)
            }
            None => self.params.rto_initial,
        }
    }

    fn arm_rto(&mut self, now: SimTime, out: &mut TcpOutput) {
        let at = now + self.rto;
        self.rto_deadline = Some(at);
        out.arm_rto = Some(at);
    }

    fn arm_rto_if_unarmed(&mut self, now: SimTime, out: &mut TcpOutput) {
        if self.rto_deadline.is_none() {
            self.arm_rto(now, out);
        }
    }

    fn disarm_rto(&mut self) {
        self.rto_deadline = None;
    }
}

diablo_engine::impl_snap_struct!(TcpParams {
    mss,
    sndbuf,
    rcvbuf,
    initial_cwnd_segments,
    rto_min,
    rto_initial,
    rto_max,
    max_rto_retries,
    delayed_ack,
    cc
});

diablo_engine::impl_snap_enum!(TcpState {
    0 => SynSent,
    1 => SynRcvd,
    2 => Established,
    3 => Closed,
});

diablo_engine::impl_snap_struct!(TcpStats {
    segs_in,
    segs_out,
    bytes_in,
    bytes_out,
    retransmits,
    fast_retransmits,
    rtos
});
diablo_engine::impl_snap_struct!(RttSample { end_seq, sent_at });

// Connections are created dynamically mid-run, so the whole endpoint —
// `params` included — rides the snapshot as a value. Consequence: a sweep
// point restored from a shared warm checkpoint applies new TCP tunables
// only to connections opened *after* the checkpoint; established flows
// keep the warm run's parameters (documented in DESIGN.md §15).
diablo_engine::impl_snap_struct!(TcpConn {
    params,
    local,
    remote,
    state,
    snd_una,
    snd_nxt,
    snd_max,
    buf_end,
    tx_markers,
    rwnd,
    cwnd,
    ssthresh,
    dupacks,
    recover,
    fin_queued,
    fin_seq,
    dctcp_alpha,
    dctcp_acked,
    dctcp_marked,
    dctcp_window_end,
    rto,
    srtt,
    rttvar,
    rtt_sample,
    rto_deadline,
    consecutive_rtos,
    timed_out,
    handshake_sent,
    rcv_nxt,
    ooo,
    rx_markers,
    ready_msgs,
    delivered_up_to,
    consumed,
    remote_fin,
    fin_acked,
    delack_deadline,
    ack_owed,
    segs_since_ack,
    last_adv_wnd,
    ce_state,
    stats
});

#[cfg(test)]
mod tests {
    use super::*;
    use diablo_engine::rng::DetRng;
    use diablo_net::addr::NodeAddr;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    const A: usize = 0;
    const B: usize = 1;

    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Deliver(usize, SegKey),
        Rto(usize),
        Delack(usize),
    }

    /// Segments are stored out-of-band so the heap key stays Ord.
    type SegKey = u64;

    /// A two-endpoint loopback world with one-way delay and scripted drops.
    struct Harness {
        conns: [TcpConn; 2],
        now: SimTime,
        delay: SimDuration,
        heap: BinaryHeap<Reverse<(SimTime, u64, Ev)>>,
        segs: std::collections::HashMap<SegKey, (TcpSegment, bool)>,
        seq: u64,
        /// Transmission indices (per sender) to drop.
        drops: [Vec<u64>; 2],
        /// Transmission indices (per sender) delivered with the IP CE bit
        /// set, as if a switch queue en route exceeded its ECN threshold.
        marks: [Vec<u64>; 2],
        sent: [u64; 2],
        established: [bool; 2],
        closed: [bool; 2],
        received: [Vec<AppMessage>; 2],
        eof: [bool; 2],
    }

    impl Harness {
        fn new(params: TcpParams) -> Self {
            Self::new_dropping(params, Vec::new())
        }

        /// Like `new`, but transmissions from A whose index appears in
        /// `drops_a` (counting from the initial SYN = 0) are lost.
        fn new_dropping(params: TcpParams, drops_a: Vec<u64>) -> Self {
            let la = SockAddr::new(NodeAddr(0), 1000);
            let lb = SockAddr::new(NodeAddr(1), 80);
            let now = SimTime::from_micros(10);
            let mut out = TcpOutput::default();
            let a = TcpConn::client(params.clone(), la, lb, now, &mut out);
            let mut h = Harness {
                conns: [a, TcpConn::new(params, lb, la, TcpState::Closed)],
                now,
                delay: SimDuration::from_micros(50),
                heap: BinaryHeap::new(),
                segs: std::collections::HashMap::new(),
                seq: 0,
                drops: [drops_a, Vec::new()],
                marks: [Vec::new(), Vec::new()],
                sent: [0, 0],
                established: [false, false],
                closed: [false, false],
                received: [Vec::new(), Vec::new()],
                eof: [false, false],
            };
            h.absorb(A, out);
            h
        }

        fn absorb(&mut self, side: usize, out: TcpOutput) {
            for seg in out.segs {
                let n = self.sent[side];
                self.sent[side] += 1;
                if self.drops[side].contains(&n) {
                    continue;
                }
                let key = self.seq;
                self.seq += 1;
                let ce = self.marks[side].contains(&n);
                self.segs.insert(key, (seg, ce));
                let other = 1 - side;
                self.heap.push(Reverse((self.now + self.delay, key, Ev::Deliver(other, key))));
            }
            if let Some(at) = out.arm_rto {
                let key = self.seq;
                self.seq += 1;
                self.heap.push(Reverse((at, key, Ev::Rto(side))));
            }
            if let Some(at) = out.arm_delack {
                let key = self.seq;
                self.seq += 1;
                self.heap.push(Reverse((at, key, Ev::Delack(side))));
            }
            if out.established {
                self.established[side] = true;
            }
            if out.closed {
                self.closed[side] = true;
            }
            if out.readable {
                // Auto-drain receivers into `received` (greedy reader).
                let mut out2 = TcpOutput::default();
                let (msgs, eof) = self.conns[side].app_recv(usize::MAX, self.now, &mut out2);
                self.received[side].extend(msgs);
                self.eof[side] |= eof;
                self.absorb(side, out2);
            }
        }

        fn run(&mut self, until: SimTime) {
            while let Some(Reverse((t, _, _))) = self.heap.peek() {
                if *t > until {
                    break;
                }
                let Reverse((t, _, ev)) = self.heap.pop().unwrap();
                self.now = t;
                let mut out = TcpOutput::default();
                match ev {
                    Ev::Deliver(side, key) => {
                        let (seg, ce) = self.segs.remove(&key).expect("segment vanished");
                        if side == B
                            && self.conns[B].state() == TcpState::Closed
                            && !self.established[B]
                            && seg.flags.syn
                            && !seg.flags.ack
                        {
                            // Passive open on first SYN.
                            let params = self.conns[B].params.clone();
                            let (local, remote) = (self.conns[B].local, self.conns[B].remote);
                            self.conns[B] =
                                TcpConn::server_from_syn(params, local, remote, &seg, t, &mut out);
                        } else {
                            self.conns[side].on_segment(t, seg, ce, &mut out);
                        }
                        self.absorb(side, out);
                    }
                    Ev::Rto(side) => {
                        self.conns[side].on_rto_timer(t, &mut out);
                        self.absorb(side, out);
                    }
                    Ev::Delack(side) => {
                        self.conns[side].on_delack_timer(t, &mut out);
                        self.absorb(side, out);
                    }
                }
            }
            self.now = self.now.max(until.min(self.now.max(until)));
        }

        fn send(&mut self, side: usize, msg: AppMessage) {
            let mut out = TcpOutput::default();
            self.conns[side].app_send(msg, self.now, &mut out).expect("send buffer full");
            self.absorb(side, out);
        }

        fn close(&mut self, side: usize) {
            let mut out = TcpOutput::default();
            self.conns[side].app_close(self.now, &mut out);
            self.absorb(side, out);
        }
    }

    fn msg(id: u64, len: u32) -> AppMessage {
        AppMessage::new(1, id, len, SimTime::ZERO)
    }

    fn run_default() -> Harness {
        let mut h = Harness::new(TcpParams::default());
        h.run(SimTime::from_millis(10));
        h
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let h = run_default();
        assert!(h.established[A] && h.established[B]);
        assert_eq!(h.conns[A].state(), TcpState::Established);
        assert_eq!(h.conns[B].state(), TcpState::Established);
    }

    #[test]
    fn syn_loss_is_retried_after_initial_rto() {
        let mut h = Harness::new_dropping(TcpParams::default(), vec![0]); // lose the SYN
        h.run(SimTime::from_millis(500));
        // SYN retransmitted after the 1 s initial RTO has NOT yet happened.
        assert!(!h.established[A]);
        h.run(SimTime::from_millis(1_500));
        assert!(h.established[A] && h.established[B]);
        assert!(h.conns[A].stats().rtos >= 1);
    }

    #[test]
    fn messages_arrive_intact_and_in_order() {
        let mut h = run_default();
        for i in 0..10 {
            h.send(A, msg(i, 5_000));
        }
        h.run(SimTime::from_millis(100));
        let ids: Vec<u64> = h.received[B].iter().map(|m| m.id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
        assert!(h.received[B].iter().all(|m| m.len == 5_000));
        assert_eq!(h.conns[A].stats().retransmits, 0);
    }

    #[test]
    fn bidirectional_transfer() {
        let mut h = run_default();
        h.send(A, msg(1, 2_000));
        h.send(B, msg(2, 3_000));
        h.run(SimTime::from_millis(100));
        assert_eq!(h.received[B].len(), 1);
        assert_eq!(h.received[A].len(), 1);
        assert_eq!(h.received[A][0].id, 2);
    }

    #[test]
    fn middle_loss_recovers_with_fast_retransmit() {
        let mut h = run_default();
        // One 30 KB message = 21 segments; drop the 6th data transmission.
        let already = h.sent[A];
        h.drops[A] = vec![already + 5];
        h.send(A, msg(7, 30_000));
        h.run(SimTime::from_millis(150));
        assert_eq!(h.received[B].len(), 1);
        let st = h.conns[A].stats();
        assert_eq!(st.fast_retransmits, 1, "stats: {st:?}");
        assert_eq!(st.rtos, 0, "loss should be repaired without an RTO: {st:?}");
    }

    #[test]
    fn tail_loss_needs_rto() {
        let mut h = run_default();
        // 2 KB message = 2 segments; drop the last one: not enough dupacks.
        let already = h.sent[A];
        h.drops[A] = vec![already + 1];
        h.send(A, msg(9, 2_000));
        h.run(SimTime::from_millis(50));
        assert!(h.received[B].is_empty());
        // RTO (initial 1 s, no sample yet at loss time) repairs it.
        h.run(SimTime::from_secs(3));
        assert_eq!(h.received[B].len(), 1);
        assert!(h.conns[A].stats().rtos >= 1);
    }

    #[test]
    fn rto_backoff_doubles_under_repeated_loss() {
        let mut h = run_default();
        let already = h.sent[A];
        // Drop the original and first two retransmissions.
        h.drops[A] = vec![already, already + 1, already + 2];
        h.send(A, msg(1, 500));
        h.run(SimTime::from_secs(20));
        assert_eq!(h.received[B].len(), 1);
        assert!(h.conns[A].stats().rtos >= 3);
    }

    #[test]
    fn sustained_loss_caps_rto_at_maximum() {
        let params = TcpParams {
            rto_max: SimDuration::from_secs(3),
            max_rto_retries: 100,
            ..TcpParams::default()
        };
        let mut h = Harness::new(params);
        h.run(SimTime::from_millis(10));
        assert!(h.established[A]);
        // The link goes dark: every further transmission from A is lost.
        h.drops[A] = (h.sent[A]..h.sent[A] + 10_000).collect();
        h.send(A, msg(1, 2_000));
        h.run(SimTime::from_secs(40));
        let st = h.conns[A].stats();
        // 200 ms, 400 ms, 800 ms, 1.6 s, then 3 s steady: doubling past the
        // cap would produce far fewer firings in 40 s.
        assert!(st.rtos >= 12, "expected steady capped firings, got {st:?}");
        assert_eq!(h.conns[A].rto, SimDuration::from_secs(3), "backoff must cap at rto_max");
        assert_eq!(h.conns[A].state(), TcpState::Established);
        assert!(!h.conns[A].timed_out());
    }

    #[test]
    fn sustained_loss_times_out_the_connection() {
        let params = TcpParams { max_rto_retries: 4, ..TcpParams::default() };
        let mut h = Harness::new(params);
        h.run(SimTime::from_millis(10));
        assert!(h.established[A]);
        h.drops[A] = (h.sent[A]..h.sent[A] + 10_000).collect();
        h.send(A, msg(1, 2_000));
        h.run(SimTime::from_secs(120));
        assert_eq!(h.conns[A].state(), TcpState::Closed);
        assert!(h.conns[A].timed_out(), "abort must surface as a timeout, not a reset");
        assert!(h.closed[A]);
        let st = h.conns[A].stats();
        assert_eq!(st.rtos, 5, "4 retries plus the firing that gives up: {st:?}");
        assert_eq!(st.retransmits, 4, "the final firing must not retransmit: {st:?}");
    }

    #[test]
    fn stats_stay_consistent_across_a_link_flap() {
        let mut h = run_default();
        // Flap: the path drops everything for ~500 ms, then heals.
        h.drops[A] = (h.sent[A]..h.sent[A] + 10_000).collect();
        h.send(A, msg(9, 30_000));
        h.run(SimTime::from_millis(510));
        h.drops[A].clear();
        h.run(SimTime::from_secs(10));
        assert_eq!(h.received[B].len(), 1, "message must survive the flap");
        assert_eq!(h.received[B][0].id, 9);
        let st = h.conns[A].stats();
        assert!(st.rtos >= 1, "recovery must come through the RTO path: {st:?}");
        assert!(st.retransmits >= st.rtos, "every RTO firing retransmits: {st:?}");
        assert_eq!(h.conns[A].state(), TcpState::Established);
        assert!(!h.conns[A].timed_out());
    }

    #[test]
    fn random_loss_preserves_exactly_once_in_order_delivery() {
        let mut rng = DetRng::new(42);
        for trial in 0..5 {
            let mut h = run_default();
            // Script random drops over the next ~100 transmissions.
            let base = h.sent[A];
            let drops: Vec<u64> = (0..100).filter(|_| rng.chance(0.1)).map(|i| base + i).collect();
            h.drops[A] = drops;
            for i in 0..20 {
                h.send(A, msg(i, 4_000));
                h.run(h.now + SimDuration::from_micros(200));
            }
            h.run(SimTime::from_secs(30));
            let ids: Vec<u64> = h.received[B].iter().map(|m| m.id).collect();
            assert_eq!(ids, (0..20).collect::<Vec<_>>(), "trial {trial}");
        }
    }

    #[test]
    fn fin_teardown_closes_both_sides() {
        let mut h = run_default();
        h.send(A, msg(1, 100));
        h.run(SimTime::from_millis(100));
        h.close(A);
        h.run(SimTime::from_millis(200));
        assert!(h.eof[B], "B must observe EOF");
        h.close(B);
        h.run(SimTime::from_millis(400));
        assert!(h.closed[A] && h.closed[B]);
        assert_eq!(h.conns[A].state(), TcpState::Closed);
        assert_eq!(h.conns[B].state(), TcpState::Closed);
    }

    #[test]
    fn send_buffer_limit_rejects_oversized_backlog() {
        let params = TcpParams { sndbuf: 10_000, ..TcpParams::default() };
        let mut h = Harness::new(params);
        h.run(SimTime::from_millis(10));
        let mut out = TcpOutput::default();
        // First fill passes; second must fail until acks free space.
        assert!(h.conns[A].app_send(msg(1, 9_000), h.now, &mut out).is_ok());
        assert!(h.conns[A].app_send(msg(2, 9_000), h.now, &mut out).is_err());
        h.absorb(A, out);
        h.run(SimTime::from_millis(100));
        // After delivery, space is free again.
        assert!(h.conns[A].writable(9_000));
    }

    #[test]
    fn cwnd_grows_from_initial_window() {
        let h = {
            let mut h = run_default();
            h.send(A, msg(1, 100_000));
            h.run(SimTime::from_secs(1));
            h
        };
        assert!(h.conns[A].cwnd() > 10 * 1460, "cwnd {} should grow", h.conns[A].cwnd());
        assert_eq!(h.received[B].len(), 1);
    }

    #[test]
    fn delayed_ack_single_segment() {
        let mut h = run_default();
        let acks_before = h.conns[A].stats().segs_in;
        h.send(A, msg(1, 100)); // single small segment
        h.run(h.now + SimDuration::from_millis(1));
        // No ack yet beyond handshake (delayed 40ms).
        let acks_mid = h.conns[A].stats().segs_in;
        h.run(h.now + SimDuration::from_millis(60));
        let acks_after = h.conns[A].stats().segs_in;
        assert_eq!(acks_mid, acks_before);
        assert!(acks_after > acks_mid, "delayed ack must eventually arrive");
    }

    #[test]
    fn reset_tears_down() {
        let mut h = run_default();
        let mut out = TcpOutput::default();
        h.conns[B].abort(&mut out);
        h.absorb(B, out);
        h.run(SimTime::from_millis(50));
        assert_eq!(h.conns[A].state(), TcpState::Closed);
        assert!(h.closed[A]);
    }

    fn dctcp_params() -> TcpParams {
        TcpParams { cc: CongestionControl::Dctcp, ..TcpParams::default() }
    }

    #[test]
    fn dctcp_without_marks_matches_reno() {
        // On a clean path DCTCP must be indistinguishable from Reno: the
        // estimator sees zero marked bytes and never cuts.
        let mut reno = Harness::new(TcpParams::default());
        let mut dctcp = Harness::new(dctcp_params());
        for h in [&mut reno, &mut dctcp] {
            h.run(SimTime::from_millis(10));
            h.send(A, msg(1, 100_000));
            h.run(SimTime::from_secs(1));
        }
        assert_eq!(reno.received[B].len(), 1);
        assert_eq!(dctcp.received[B].len(), 1);
        assert_eq!(reno.conns[A].cwnd(), dctcp.conns[A].cwnd());
        assert_eq!(reno.conns[A].stats(), dctcp.conns[A].stats());
    }

    #[test]
    fn dctcp_echoes_marks_and_cuts_proportionally() {
        // Two identical DCTCP transfers; one path CE-marks a run of data
        // segments. The marked sender must end with a smaller window —
        // without a single loss or retransmission.
        let mut marked = Harness::new(dctcp_params());
        let mut clean = Harness::new(dctcp_params());
        for h in [&mut marked, &mut clean] {
            h.run(SimTime::from_millis(10));
        }
        let base = marked.sent[A];
        marked.marks[A] = (base..base + 40).collect();
        for h in [&mut marked, &mut clean] {
            h.send(A, msg(1, 100_000));
            h.run(SimTime::from_secs(1));
        }
        assert_eq!(marked.received[B].len(), 1, "marks must not corrupt delivery");
        assert_eq!(clean.received[B].len(), 1);
        assert_eq!(marked.conns[A].stats().retransmits, 0);
        assert!(
            marked.conns[A].cwnd() < clean.conns[A].cwnd(),
            "marked cwnd {} must stay below clean cwnd {}",
            marked.conns[A].cwnd(),
            clean.conns[A].cwnd()
        );
        // The estimator converged away from its conservative init toward the
        // observed mark pattern, and the cut respects the two-segment floor.
        assert!(marked.conns[A].dctcp_alpha <= 1.0);
        assert!(marked.conns[A].cwnd() >= 2 * marked.conns[A].params.mss as u64);
    }

    #[test]
    fn dctcp_receiver_flips_ece_with_ce_state() {
        // Delayed-ACK coalescing must not blur mark boundaries: a CE state
        // change forces an immediate ACK carrying the new ECE value.
        let mut h = Harness::new(dctcp_params());
        h.run(SimTime::from_millis(10));
        let base = h.sent[A];
        h.marks[A] = vec![base + 1]; // mark only the second data segment
        h.send(A, msg(1, 3 * 1460));
        h.run(SimTime::from_millis(100));
        assert_eq!(h.received[B].len(), 1);
        // Receiver's CE state ended false (last segment unmarked)...
        assert!(!h.conns[B].ce_state);
        // ...and the sender accounted some bytes as marked, fewer than all.
        assert!(h.conns[A].dctcp_alpha < 1.0, "alpha {}", h.conns[A].dctcp_alpha);
    }
}
