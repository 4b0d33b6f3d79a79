//! Micro-benchmarks of the core data structures and substrates.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use vine_dag::rewrite::add_tree_reduce;
use vine_dag::{ReadyTracker, TaskGraph, TaskKind};
use vine_data::{EventGenerator, Hist1D};
use vine_net::fairshare::{max_min_fair, max_min_fair_into, FairScratch, FlowSpec};
use vine_simcore::{EventQueue, SimTime};
use vine_storage::{CacheEntryKind, CacheName, LocalCache};

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_10k", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let times: Vec<u64> = (0..10_000).map(|_| rng.gen_range(0..1_000_000)).collect();
        b.iter(|| {
            let mut q = EventQueue::new();
            for &t in &times {
                q.schedule(SimTime::from_micros(t), t);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum += v;
            }
            black_box(sum)
        })
    });
}

fn bench_fairshare(c: &mut Criterion) {
    // The Work Queue pattern at full scale: 400 flows over one uplink.
    let flows: Vec<FlowSpec> = (0..400)
        .map(|w| FlowSpec {
            egress_link: 0,
            ingress_link: 1 + w,
            rate_cap: f64::INFINITY,
        })
        .collect();
    let caps: Vec<f64> = std::iter::once(1.5e9)
        .chain((0..400).map(|_| 1.25e9))
        .collect();
    c.bench_function("fairshare/manager_fanout_400", |b| {
        b.iter(|| black_box(max_min_fair(black_box(&flows), black_box(&caps))))
    });

    // The TaskVine pattern: disjoint peer pairs.
    let peer_flows: Vec<FlowSpec> = (0..200)
        .map(|i| FlowSpec {
            egress_link: 2 * i,
            ingress_link: 2 * i + 1,
            rate_cap: f64::INFINITY,
        })
        .collect();
    let peer_caps = vec![1.25e9; 400];
    c.bench_function("fairshare/peer_pairs_200", |b| {
        b.iter(|| black_box(max_min_fair(black_box(&peer_flows), black_box(&peer_caps))))
    });

    // A campus-scale solve as the fabric runs it (reused scratch): 600
    // workers on the star (node i: egress 2i, ingress 2i + 1; manager is
    // node 0, the shared filesystem node 601) carrying 1,300 flows —
    // 300 manager fan-out, 600 peer pairs, 400 shared-FS streams capped
    // at the per-stream limit.
    let workers = 600;
    let fs = workers + 1;
    let mut campus_caps = vec![1.5e9, 1.5e9];
    campus_caps.extend(std::iter::repeat_n(1.25e9, 2 * workers));
    campus_caps.extend([40e9, 40e9]);
    let flow = |src: usize, dst: usize, rate_cap: f64| FlowSpec {
        egress_link: 2 * src,
        ingress_link: 2 * dst + 1,
        rate_cap,
    };
    let campus_flows: Vec<FlowSpec> = (1..=300)
        .map(|w| flow(0, w, f64::INFINITY))
        .chain((1..=workers).map(|w| flow(w, (w + 16) % workers + 1, f64::INFINITY)))
        .chain((1..=400).map(|w| flow(fs, w, 1.5e9)))
        .collect();
    let mut rates = Vec::new();
    let mut scratch = FairScratch::default();
    c.bench_function("fairshare/campus_600w_1300_flows", |b| {
        b.iter(|| {
            max_min_fair_into(
                black_box(&campus_flows),
                black_box(&campus_caps),
                &mut rates,
                &mut scratch,
            );
            black_box(rates[0])
        })
    });
}

fn bench_cache(c: &mut Criterion) {
    c.bench_function("cache/insert_evict_churn", |b| {
        b.iter(|| {
            let mut cache = LocalCache::new(100_000);
            for i in 0..1000u32 {
                let name = CacheName::for_dataset_file("bench", i);
                let _ = cache.insert(name, 1000, CacheEntryKind::Intermediate);
            }
            black_box(cache.used())
        })
    });
}

fn bench_dag(c: &mut Criterion) {
    c.bench_function("dag/build_tree_reduce_4096", |b| {
        b.iter(|| {
            let mut g = TaskGraph::new();
            let leaves: Vec<_> = (0..4096)
                .map(|i| g.add_external_file(format!("l{i}"), 100))
                .collect();
            add_tree_reduce(&mut g, "acc", &leaves, 16, 10, 0.1);
            black_box(g.task_count())
        })
    });

    c.bench_function("dag/tracker_execute_10k", |b| {
        let mut g = TaskGraph::new();
        let mut partials = Vec::new();
        for i in 0..10_000 {
            let f = g.add_external_file(format!("c{i}"), 10);
            let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[1], 1.0);
            partials.push(outs[0]);
        }
        add_tree_reduce(&mut g, "acc", &partials, 16, 1, 0.1);
        b.iter(|| {
            let mut t = ReadyTracker::new(&g);
            let mut n = 0;
            while let Some(task) = t.pop_ready() {
                t.mark_done(task);
                n += 1;
            }
            black_box(n)
        })
    });
}

fn bench_data(c: &mut Criterion) {
    c.bench_function("data/generate_1k_events", |b| {
        let gen = EventGenerator::default();
        let mut chunk = 0u32;
        b.iter(|| {
            chunk += 1;
            black_box(gen.generate("bench", 0, chunk, 1000))
        })
    });

    c.bench_function("data/hist_fill_merge", |b| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let xs: Vec<f64> = (0..10_000).map(|_| rng.gen_range(0.0..300.0)).collect();
        b.iter(|| {
            let mut a = Hist1D::new(100, 0.0, 300.0);
            let mut bh = Hist1D::new(100, 0.0, 300.0);
            a.fill_all(&xs[..5000]);
            bh.fill_all(&xs[5000..]);
            a.merge(&bh);
            black_box(a.total())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_event_queue, bench_fairshare, bench_cache, bench_dag, bench_data
}
criterion_main!(benches);
