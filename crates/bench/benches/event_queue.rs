//! Calendar queue vs. binary heap under DES-shaped load.
//!
//! Two access patterns, at 1e4 and 1e6 pending events:
//!
//! * `churn` — the hold model that dominates the engine's event loop:
//!   pop the earliest event, schedule a replacement a pseudo-random
//!   offset into the future, repeat. Queue size stays constant, which is
//!   exactly where a calendar queue's O(1) buckets beat a heap's
//!   O(log n) sift.
//! * `fill_drain` — schedule everything, then pop everything (the
//!   bootstrap/teardown shape).
//!
//! Run as a smoke test with `cargo bench --bench event_queue -- --test`.

#[path = "support/heap_queue.rs"]
mod heap_queue;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use heap_queue::BinaryHeapQueue;
use vine_simcore::{EventQueue, SimTime};

/// Deterministic 64-bit mix (splitmix64) — cheap stand-in for an RNG so
/// both queues see the identical schedule.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn churn_calendar(pending: u64, ops: u64) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..pending {
        q.schedule(SimTime::from_micros(mix(i) % 1_000_000), i);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let Some((t, v)) = q.pop() else { break };
        acc = acc.wrapping_add(v);
        q.schedule(
            t + vine_simcore::SimDur::from_micros(1 + mix(i) % 10_000),
            v,
        );
    }
    acc
}

fn churn_heap(pending: u64, ops: u64) -> u64 {
    let mut q = BinaryHeapQueue::new();
    for i in 0..pending {
        q.schedule(SimTime::from_micros(mix(i) % 1_000_000), i);
    }
    let mut acc = 0u64;
    for i in 0..ops {
        let Some((t, v)) = q.pop() else { break };
        acc = acc.wrapping_add(v);
        q.schedule(
            t + vine_simcore::SimDur::from_micros(1 + mix(i) % 10_000),
            v,
        );
    }
    acc
}

fn fill_drain_calendar(n: u64) -> u64 {
    let mut q = EventQueue::new();
    for i in 0..n {
        q.schedule(SimTime::from_micros(mix(i) % 10_000_000), i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

fn fill_drain_heap(n: u64) -> u64 {
    let mut q = BinaryHeapQueue::new();
    for i in 0..n {
        q.schedule(SimTime::from_micros(mix(i) % 10_000_000), i);
    }
    let mut acc = 0u64;
    while let Some((_, v)) = q.pop() {
        acc = acc.wrapping_add(v);
    }
    acc
}

fn bench_event_queues(c: &mut Criterion) {
    for pending in [10_000u64, 1_000_000u64] {
        let label = if pending == 10_000 { "1e4" } else { "1e6" };
        let ops = 50_000u64;
        let mut g = c.benchmark_group(&format!("event_queue/{label}"));
        g.bench_function("churn/calendar", |b| {
            b.iter(|| black_box(churn_calendar(pending, ops)))
        });
        g.bench_function("churn/heap", |b| {
            b.iter(|| black_box(churn_heap(pending, ops)))
        });
        g.bench_function("fill_drain/calendar", |b| {
            b.iter(|| black_box(fill_drain_calendar(pending)))
        });
        g.bench_function("fill_drain/heap", |b| {
            b.iter(|| black_box(fill_drain_heap(pending)))
        });
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).configure_from_args();
    targets = bench_event_queues
}
criterion_main!(benches);
