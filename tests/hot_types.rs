//! The types every scheduled event carries must not silently grow.
//!
//! The calendar queue stores `Event<Frame>` by value in its buckets, so the
//! event's size is the stride of every queue push, sort and pop, and the
//! wheel geometry in `crates/engine/src/sched.rs` was chosen by the
//! measurement grid in DESIGN.md §4 ("Choosing the wheel geometry") at this
//! size. A field added to `Frame`, `IpPacket` or a payload shows up here as
//! a failing test rather than as a slower wheel: either make room for it or
//! re-run the grid and raise the bound on purpose.

use diablo::engine::event::Event;
use diablo::net::frame::{Frame, Route};

#[test]
fn scheduled_event_stays_within_its_measured_size() {
    assert!(
        std::mem::size_of::<Event<Frame>>() <= 128,
        "Event<Frame> grew to {} bytes",
        std::mem::size_of::<Event<Frame>>()
    );
}

#[test]
fn route_is_inline() {
    // `Copy` rules out a heap-backed port list: stamping a route on a frame
    // must stay a register copy, never an allocation per frame.
    fn assert_copy<T: Copy>() {}
    assert_copy::<Route>();
    assert!(std::mem::size_of::<Route>() <= 16);
}
