//! The yardstick: a fixed piece of work in the benchmark's own code, timed
//! next to every repetition, so that a host time can be stated at the speed
//! of one reference host.
//!
//! The benchmark runs on a few cores of a shared machine that is 20-35%
//! slower in some phases than in others, for minutes at a time (see
//! README.md, *Observed spread*). Runs of the same code taken in two phases
//! differ by more than any regression bound, whatever statistic summarises
//! a run. What the phases slow is the core itself (memory-bound loops do
//! not notice them), and the more so the more instructions per cycle the
//! code retires: a branchy heap loop loses 20%, an allocator loop 60%, a
//! whole repetition of the simulator 25-30%, its set-up alone 37-49% and
//! its event loop alone 17%. The yardstick is four parts heap to one part
//! allocator, which slows as a whole repetition does. Over 50 minutes that
//! held both phases, dividing each repetition's wall time by the
//! yardstick's time next to it took the quartile distance of 149
//! repetitions from 20-21% to 6-7% on each declared workload, and from 36%
//! to 11% on the set-up alone.
//!
//! Both loops call nothing in the simulator, so a change to the simulator
//! cannot move them: the event-queue hold model on `std`'s binary heap (pop
//! the earliest of 4,096 pending keys, push a successor), and a box
//! allocated and another freed at a random one of 1,024 slots.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Milliseconds one slice costs on the reference host: this machine in its
/// fast phase. A time scaled by `REFERENCE_MS / measured` is what the
/// reference host would have taken.
pub const REFERENCE_MS: f64 = 15.3;

/// Keys pending in the heap.
const DEPTH: u32 = 4096;
/// Boxes alive in the allocator loop.
const SLOTS: u64 = 1024;
/// Hold operations per slice: 12.2 of the reference host's 15.3 ms.
const HOLD_OPS: u32 = 200_000;
/// Allocate-and-free operations per slice: the other 3.1 ms.
const CHURN_OPS: u32 = 250_000;
/// Slices per reading. The reading is their median, so a slice that the
/// host interrupted does not count.
const SLICES: usize = 5;

fn lcg(x: &mut u64) -> u64 {
    *x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
    *x >> 33
}

/// The heap, the boxes and their input stream. One value lives as long as a
/// run, so every reading works on structures in their steady state.
pub struct Yardstick {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    slots: Vec<Option<Box<[u64; 16]>>>,
    rng: u64,
}

impl Yardstick {
    /// Fills the heap and takes one reading to reach the steady state.
    pub fn new() -> Self {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let heap = (0..DEPTH).map(|id| Reverse((lcg(&mut rng) % 100_000, id))).collect();
        let slots = (0..SLOTS).map(|_| None).collect();
        let mut y = Yardstick { heap, slots, rng };
        y.read_ms();
        y
    }

    fn slice_ms(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..HOLD_OPS {
            let Reverse((key, id)) = self.heap.pop().expect("the heap holds its depth");
            let next = key + 1 + lcg(&mut self.rng) % 100_000;
            self.heap.push(Reverse((next, id)));
        }
        for _ in 0..CHURN_OPS {
            let r = lcg(&mut self.rng);
            self.slots[(r % SLOTS) as usize] = Some(Box::new([r; 16]));
        }
        black_box((self.heap.len(), &self.slots));
        start.elapsed().as_secs_f64() * 1e3
    }

    /// One reading: milliseconds per slice, now. About 80 ms.
    pub fn read_ms(&mut self) -> f64 {
        let slices: Vec<f64> = (0..SLICES).map(|_| self.slice_ms()).collect();
        crate::stats::median(&slices)
    }
}

/// `host_s` measured between the readings `before_ms` and `after_ms`, as the
/// reference host would have taken it.
pub fn at_reference(host_s: f64, before_ms: f64, after_ms: f64) -> f64 {
    host_s * REFERENCE_MS / ((before_ms + after_ms) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_reference_speed_leaves_a_time_unchanged() {
        assert_eq!(at_reference(2.5, REFERENCE_MS, REFERENCE_MS), 2.5);
    }

    #[test]
    fn a_host_a_quarter_slower_has_its_time_cut_back_by_a_fifth() {
        let slow = REFERENCE_MS * 1.25;
        assert!((at_reference(5.0, slow, slow) - 4.0).abs() < 1e-12);
        // The two readings count equally.
        let mixed = at_reference(5.0, REFERENCE_MS, REFERENCE_MS * 1.5);
        assert!((mixed - 4.0).abs() < 1e-12);
    }

    #[test]
    fn a_reading_is_positive_and_the_heap_keeps_its_depth() {
        let mut y = Yardstick::new();
        assert!(y.read_ms() > 0.0);
        assert_eq!(y.heap.len(), DEPTH as usize);
    }
}
