//! Deterministic event queues with lazy cancellation.
//!
//! Events at equal timestamps pop in insertion (FIFO) order — essential for
//! reproducibility, because scheduler decisions (task placement, peer
//! transfer throttling) depend on the order ready events are observed.
//!
//! [`EventQueue`] is a hierarchical *calendar queue*: a sorted drain buffer
//! for the imminent bucket, a ring of unsorted future buckets (sorted only
//! when a bucket activates), and an overflow list that re-primes the ring
//! when it runs dry. Schedule and cancel are O(1) for the common
//! near-future case; cancellation marks a dense per-id state byte instead
//! of hashing, which matters because network flow completions are
//! rescheduled every time bandwidth shares change. It pops in exact global
//! `(time, id)` order; the bench crate keeps the original binary heap as
//! the reference it is tested and benchmarked against.

use crate::time::SimTime;

/// Handle to a scheduled event, usable to cancel it before it fires.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct EventId(u64);

/// Number of buckets in the calendar ring. A power of two keeps the ring
/// small enough to scan when sparse while amortising bucket sorts.
const RING_BUCKETS: usize = 256;

/// Per-event lifecycle states in the dense `states` array.
const ST_PENDING: u8 = 0;
const ST_CANCELLED: u8 = 1;
const ST_DEAD: u8 = 2;

struct Slot<E> {
    /// Absolute time in microseconds.
    t: u64,
    id: u64,
    payload: E,
}

/// Hierarchical calendar queue of timestamped events.
///
/// `E` is the simulation's event payload type (defined by the engine that
/// drives the run, e.g. `vine-core`'s `SimEvent`).
///
/// Structure: `cur` holds every live event earlier than `cur_end`, sorted
/// descending by `(time, id)` so the earliest pops off the back in O(1).
/// `ring[ring_head..]` holds unsorted buckets of `width` microseconds each,
/// starting at `cur_end`; a bucket is sorted once, when it becomes the
/// drain. Events beyond the ring land in `far`, which re-primes the ring
/// (recalibrating `width` to the observed span) when everything nearer has
/// drained. Scheduling into the past is permitted — a sorted insert into
/// the drain keeps global order exact.
pub struct EventQueue<E> {
    /// Imminent events (`t < cur_end`), sorted descending by `(t, id)`.
    cur: Vec<Slot<E>>,
    /// Exclusive upper bound of `cur`; start of bucket `ring_head`.
    cur_end: u64,
    /// Future buckets; index `j >= ring_head` covers
    /// `[cur_end + (j - ring_head) * width, +width)`.
    ring: Vec<Vec<Slot<E>>>,
    /// Next bucket to drain; buckets before it are empty.
    ring_head: usize,
    /// Bucket width in microseconds (>= 1).
    width: u64,
    /// Events beyond the ring horizon, unsorted.
    far: Vec<Slot<E>>,
    /// Lifecycle per `EventId`: pending, cancelled (awaiting sweep), dead.
    states: Vec<u8>,
    /// Live (pending, non-cancelled) event count.
    live: usize,
    next_id: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        let mut ring = Vec::with_capacity(RING_BUCKETS);
        ring.resize_with(RING_BUCKETS, Vec::new);
        EventQueue {
            cur: Vec::new(),
            cur_end: 0,
            ring,
            // Exhausted ring: the first schedule lands in `far` and the
            // first pop re-primes around it.
            ring_head: RING_BUCKETS,
            width: 1,
            far: Vec::new(),
            states: Vec::new(),
            live: 0,
            next_id: 0,
        }
    }

    /// Schedule `payload` to fire at `time`. Returns a handle for
    /// cancellation. Scheduling in the past is permitted (the caller's
    /// engine decides whether that is an error) — entries still pop in
    /// global (time, insertion) order.
    pub fn schedule(&mut self, time: SimTime, payload: E) -> EventId {
        let t = time.as_micros();
        let id = self.next_id;
        self.next_id += 1;
        self.states.push(ST_PENDING);
        self.live += 1;
        let slot = Slot { t, id, payload };
        if t < self.cur_end {
            // Into the drain: sorted insert. Near-future events (the common
            // case: "at now + small cost") land near the back, so the
            // memmove is short.
            let pos = self.cur.partition_point(|s| (s.t, s.id) > (t, id));
            self.cur.insert(pos, slot);
        } else {
            let j = self.ring_head as u64 + (t - self.cur_end) / self.width;
            if j < RING_BUCKETS as u64 {
                self.ring[j as usize].push(slot);
            } else {
                self.far.push(slot);
            }
        }
        EventId(id)
    }

    /// Cancel a previously scheduled event. Returns `true` if the event was
    /// still pending (i.e. had not fired and was not already cancelled).
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.states.get_mut(id.0 as usize) {
            Some(st) if *st == ST_PENDING => {
                *st = ST_CANCELLED;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Remove and return the earliest live event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            while let Some(slot) = self.cur.pop() {
                let idx = slot.id as usize;
                let was_pending = self.states[idx] == ST_PENDING;
                self.states[idx] = ST_DEAD;
                if was_pending {
                    self.live -= 1;
                    return Some((SimTime::from_micros(slot.t), slot.payload));
                }
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// The timestamp of the earliest live event, without removing it.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        loop {
            // Sweep cancelled entries off the back so peek is accurate.
            while let Some(slot) = self.cur.last() {
                if self.states[slot.id as usize] == ST_PENDING {
                    return Some(SimTime::from_micros(slot.t));
                }
                let idx = slot.id as usize;
                self.states[idx] = ST_DEAD;
                self.cur.pop();
            }
            if !self.refill() {
                return None;
            }
        }
    }

    /// Number of live (pending, non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Activate the next non-empty bucket as the drain, re-priming the ring
    /// from `far` when it runs dry. Returns `false` when no events remain
    /// anywhere (live or cancelled-but-unswept).
    fn refill(&mut self) -> bool {
        loop {
            while self.ring_head < RING_BUCKETS {
                let bucket = std::mem::take(&mut self.ring[self.ring_head]);
                self.ring_head += 1;
                self.cur_end += self.width;
                if !bucket.is_empty() {
                    self.cur = bucket;
                    // Descending (t, id): earliest at the back. Ids are
                    // unique, so unstable sort is still a total order and
                    // FIFO-within-timestamp holds.
                    self.cur
                        .sort_unstable_by_key(|s| std::cmp::Reverse((s.t, s.id)));
                    return true;
                }
            }
            if self.far.is_empty() {
                return false;
            }
            // Re-prime: recalibrate the bucket width to the span of the
            // overflow events and redistribute them. Every far event is at
            // or beyond the old ring horizon, so `cur_end` stays monotone.
            let mut tmin = u64::MAX;
            let mut tmax = 0;
            for s in &self.far {
                tmin = tmin.min(s.t);
                tmax = tmax.max(s.t);
            }
            self.width = (tmax - tmin) / RING_BUCKETS as u64 + 1;
            self.cur_end = tmin;
            self.ring_head = 0;
            for slot in std::mem::take(&mut self.far) {
                let j = ((slot.t - tmin) / self.width) as usize;
                self.ring[j].push(slot);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), "c");
        q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert_eq!(q.pop(), Some((t(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), ());
        q.pop();
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
        assert_eq!(q.pop(), Some((t(2), "b")));
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..10).map(|i| q.schedule(t(i), i)).collect();
        assert_eq!(q.len(), 10);
        q.cancel(ids[3]);
        q.cancel(ids[7]);
        assert_eq!(q.len(), 8);
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        assert_eq!(popped, 8);
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 10);
        q.schedule(t(5), 5);
        assert_eq!(q.pop(), Some((t(5), 5)));
        q.schedule(t(7), 7);
        q.schedule(t(6), 6);
        assert_eq!(q.pop(), Some((t(6), 6)));
        assert_eq!(q.pop(), Some((t(7), 7)));
        assert_eq!(q.pop(), Some((t(10), 10)));
    }

    #[test]
    fn scheduling_into_the_past_pops_first() {
        let mut q = EventQueue::new();
        for s in [100, 200, 300] {
            q.schedule(t(s), s);
        }
        assert_eq!(q.pop(), Some((t(100), 100)));
        // Earlier than everything live, later than the last pop.
        q.schedule(t(150), 150);
        q.schedule(t(150), 151);
        assert_eq!(q.pop(), Some((t(150), 150)));
        assert_eq!(q.pop(), Some((t(150), 151)));
        assert_eq!(q.pop(), Some((t(200), 200)));
    }

    #[test]
    fn far_horizon_reprime_preserves_order() {
        let mut q = EventQueue::new();
        // Span wide enough to force several ring re-primes.
        let times = [0u64, 1, 2, 1_000, 1_000_000, 3_600_000_000, 3_600_000_001];
        for (i, &us) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(us), i);
        }
        for (i, &us) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((SimTime::from_micros(us), i)));
        }
        assert_eq!(q.pop(), None);
    }
}
