//! The calendar `EventQueue` against the binary-heap reference it
//! replaced: interleaved schedule, cancel, peek and pop must agree step
//! for step.

#[path = "../benches/support/heap_queue.rs"]
mod heap_queue;

use heap_queue::BinaryHeapQueue;
use vine_simcore::{EventQueue, SimTime};

#[test]
fn calendar_matches_binary_heap_reference() {
    // Deterministic pseudo-random workload of interleaved schedule,
    // cancel, and pop against both queues; sequences must be identical.
    let mut cal = EventQueue::new();
    let mut heap = BinaryHeapQueue::new();
    let mut ids_c = Vec::new();
    let mut ids_h = Vec::new();
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut popped = Vec::new();
    let mut expected = Vec::new();
    for step in 0..20_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 10 {
            0..=5 => {
                // Cluster most times near a moving "now", with a long tail.
                let us = step * 3 + x % 1000 + if x.is_multiple_of(97) { 1_000_000 } else { 0 };
                ids_c.push(cal.schedule(SimTime::from_micros(us), step));
                ids_h.push(heap.schedule(SimTime::from_micros(us), step));
            }
            6..=7 => {
                if !ids_c.is_empty() {
                    let k = (x as usize / 16) % ids_c.len();
                    assert_eq!(cal.cancel(ids_c[k]), heap.cancel(ids_h[k]));
                }
            }
            _ => {
                assert_eq!(cal.peek_time(), heap.peek_time());
                popped.push(cal.pop());
                expected.push(heap.pop());
            }
        }
        assert_eq!(cal.len(), heap.len());
    }
    while let Some(e) = heap.pop() {
        expected.push(Some(e));
        popped.push(cal.pop());
    }
    assert_eq!(cal.pop(), None);
    assert_eq!(popped, expected);
}
