//! Property test: the TCP receive path delivers application messages
//! exactly once and in order, no matter how the network reorders or
//! duplicates segments.

use diablo_engine::rng::DetRng;
use diablo_engine::time::SimTime;
use diablo_net::addr::{NodeAddr, SockAddr};
use diablo_net::payload::{AppMessage, StreamMarker, TcpFlags, TcpSegment};
use diablo_stack::tcp::{TcpConn, TcpOutput, TcpParams};
use proptest::prelude::*;

/// Builds the data segments (MSS-chunked) for a sequence of message
/// lengths, with stream markers at message boundaries.
fn build_segments(lens: &[u32], mss: u32) -> Vec<TcpSegment> {
    let mut segs = Vec::new();
    let mut offset = 1u64; // DATA_START
    let mut markers: Vec<StreamMarker> = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        let end = offset + markers.iter().map(|_| 0u64).sum::<u64>() + len.max(1) as u64;
        let msg = AppMessage::new(7, i as u64, len.max(1), SimTime::ZERO);
        markers.push(StreamMarker { end_offset: end, msg });
        offset = end;
    }
    // Emit MSS-sized segments covering [1, offset).
    let total = offset - 1;
    let mut seq = 1u64;
    while seq < 1 + total {
        let len = mss.min((1 + total - seq) as u32);
        let seg_markers: Vec<StreamMarker> = markers
            .iter()
            .filter(|m| m.end_offset > seq && m.end_offset <= seq + len as u64)
            .copied()
            .collect();
        segs.push(TcpSegment {
            src_port: 9,
            dst_port: 80,
            seq,
            ack: 1,
            flags: TcpFlags::ACK,
            wnd: 1 << 20,
            payload_len: len,
            markers: seg_markers,
        });
        seq += len as u64;
    }
    segs
}

/// Creates a server-side connection that has completed its handshake.
fn established_receiver() -> TcpConn {
    let params = TcpParams { rcvbuf: 1 << 22, ..TcpParams::default() };
    let local = SockAddr::new(NodeAddr(0), 80);
    let remote = SockAddr::new(NodeAddr(1), 9);
    let syn = TcpSegment {
        src_port: 9,
        dst_port: 80,
        seq: 0,
        ack: 0,
        flags: TcpFlags::SYN,
        wnd: 1 << 20,
        payload_len: 0,
        markers: Vec::new(),
    };
    let mut out = TcpOutput::default();
    let mut conn =
        TcpConn::server_from_syn(params, local, remote, &syn, SimTime::from_micros(1), &mut out);
    let ack = TcpSegment {
        src_port: 9,
        dst_port: 80,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK,
        wnd: 1 << 20,
        payload_len: 0,
        markers: Vec::new(),
    };
    let mut out = TcpOutput::default();
    conn.on_segment(SimTime::from_micros(2), ack, false, &mut out);
    conn
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reordered_duplicated_segments_deliver_exactly_once_in_order(
        lens in proptest::collection::vec(1u32..6_000, 1..24),
        seed in any::<u64>(),
        dup_rate in 0u32..40,
    ) {
        let segs = build_segments(&lens, 1460);
        // Build a delivery schedule: every segment at least once, extras
        // duplicated, then deterministically shuffled.
        let mut rng = DetRng::new(seed);
        let mut schedule: Vec<usize> = (0..segs.len()).collect();
        for i in 0..segs.len() {
            if rng.next_below(100) < dup_rate as u64 {
                schedule.push(i);
            }
        }
        rng.shuffle(&mut schedule);

        let mut conn = established_receiver();
        let mut delivered: Vec<AppMessage> = Vec::new();
        let mut t = SimTime::from_micros(3);
        for &idx in &schedule {
            let mut out = TcpOutput::default();
            conn.on_segment(t, segs[idx].clone(), false, &mut out);
            t += diablo_engine::time::SimDuration::from_micros(1);
            let (msgs, _eof) = conn.app_recv(usize::MAX, t, &mut out);
            delivered.extend(msgs);
        }
        prop_assert_eq!(delivered.len(), lens.len(), "count mismatch");
        for (i, m) in delivered.iter().enumerate() {
            prop_assert_eq!(m.id, i as u64, "order violated at {}", i);
            prop_assert_eq!(m.len, lens[i].max(1), "length corrupted at {}", i);
        }
    }

    /// The receiver's cumulative ack eventually covers the whole stream no
    /// matter the arrival order.
    #[test]
    fn cumulative_ack_converges(
        lens in proptest::collection::vec(1u32..4_000, 1..16),
        seed in any::<u64>(),
    ) {
        let segs = build_segments(&lens, 1460);
        let total: u64 = segs.iter().map(|s| s.payload_len as u64).sum();
        let mut rng = DetRng::new(seed);
        let mut order: Vec<usize> = (0..segs.len()).collect();
        rng.shuffle(&mut order);

        let mut conn = established_receiver();
        let mut last_ack = 0u64;
        let mut t = SimTime::from_micros(3);
        for &idx in &order {
            let mut out = TcpOutput::default();
            conn.on_segment(t, segs[idx].clone(), false, &mut out);
            t += diablo_engine::time::SimDuration::from_micros(1);
            for seg in &out.segs {
                last_ack = last_ack.max(seg.ack);
            }
        }
        // Flush any pending delayed ACK (a lone in-order segment arms the
        // 40 ms delack timer instead of acking immediately).
        let mut out = TcpOutput::default();
        if let Some(due) = conn.delack_deadline() {
            conn.on_delack_timer(due, &mut out);
        }
        for seg in &out.segs {
            last_ack = last_ack.max(seg.ack);
        }
        prop_assert_eq!(last_ack, 1 + total, "final ack must cover the stream");
    }
}
