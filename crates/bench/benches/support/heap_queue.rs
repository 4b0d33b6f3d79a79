//! The original single-`BinaryHeap` event queue with hash-set
//! cancellation — the reference `vine_simcore::EventQueue` (a calendar
//! queue) replaced. Same contract: events pop in global `(time, id)`
//! order, FIFO within a timestamp, with lazy cancellation.
//!
//! Shared by the `event_queue` benchmark (A/B timing) and the
//! `event_queue_reference` test (pop-sequence equality). `pending` and
//! `cancelled` are membership probes only; nothing iterates them, so
//! hash order cannot leak into the pop order.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

use vine_simcore::SimTime;

struct Entry<E> {
    time: SimTime,
    id: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.id == other.id
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, id) pops
        // first. Ids are monotone, giving FIFO order within a timestamp.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// A binary-heap event queue; handles are plain sequence numbers.
pub struct BinaryHeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    /// Ids scheduled but not yet fired or cancelled.
    pending: HashSet<u64>,
    /// Ids cancelled but whose heap entry has not yet been discarded.
    cancelled: HashSet<u64>,
    next_id: u64,
}

impl<E> BinaryHeapQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            pending: HashSet::new(),
            cancelled: HashSet::new(),
            next_id: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle for
    /// cancellation.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.heap.push(Entry { time, id, payload });
        self.pending.insert(id);
        id
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not fired and was not already cancelled).
    #[allow(dead_code)] // the benchmark never cancels
    pub fn cancel(&mut self, id: u64) -> bool {
        if self.pending.remove(&id) {
            self.cancelled.insert(id);
            true
        } else {
            false
        }
    }

    /// Remove and return the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        while let Some(entry) = self.heap.pop() {
            if self.cancelled.remove(&entry.id) {
                continue;
            }
            self.pending.remove(&entry.id);
            return Some((entry.time, entry.payload));
        }
        None
    }

    /// The timestamp of the earliest live event, without removing it.
    #[allow(dead_code)] // the benchmark never peeks
    pub fn peek_time(&mut self) -> Option<SimTime> {
        // Drop cancelled entries off the front so peek is accurate.
        while let Some(entry) = self.heap.peek() {
            if !self.cancelled.contains(&entry.id) {
                return Some(entry.time);
            }
            let id = entry.id;
            self.heap.pop();
            self.cancelled.remove(&id);
        }
        None
    }

    /// Number of live (pending, non-cancelled) events.
    #[allow(dead_code)] // the benchmark never asks
    pub fn len(&self) -> usize {
        self.pending.len()
    }
}
