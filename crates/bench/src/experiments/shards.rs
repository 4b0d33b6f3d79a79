//! The federation experiment (`vine-fig fig-shards`): N facility shards
//! over one shared content-addressed object tier (`vine-store`), swept
//! across shard counts and tenant-population sizes. See DESIGN.md §13.
//!
//! Each cell of the sweep builds a [`ShardedFacility`] (store enabled,
//! work stealing on), drives it with the seeded multi-tenant load
//! generator, and runs the whole cell **twice**, asserting the two
//! [`ShardedReport::digest`]s are bit-identical — the lockstep replay
//! guarantee. The per-cell rows land in `results/shards.csv`.
//!
//! The experiment fails (panics) unless
//!
//! * every cell replays with a bit-identical digest, and
//! * for every tenant population, the warm-hit ratio at shards=8 stays
//!   within 5 % (relative) of shards=1 — the shared tier must make a
//!   federated facility as warm as a monolithic one.
//!
//! `--gate` runs only the CI cell (shards=4, the smallest population,
//! seed 42) and prints `digest=<hex> warm_hit=<ratio>` for
//! `scripts/bench_gate.sh` to compare across two process invocations
//! and against the committed baseline.

use vine_serve::{
    FacilityConfig, LoadGen, ShardedConfig, ShardedFacility, ShardedReport, Submission,
};
use vine_store::{ShardCounters, StoreConfig};

use super::Fig;
use crate::report;

const SEED: u64 = 42;
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One tenant-population row of the sweep: population size, submissions
/// per tenant, and the workload scale-down (larger populations run
/// smaller graphs so the sweep stays tractable).
const TENANT_SWEEP: [(usize, usize, usize); 3] =
    [(1_000, 2, 40), (10_000, 1, 80), (100_000, 1, 160)];

/// The federation template for one cell.
fn config(n_tenants: usize, shards: usize, seed: u64) -> ShardedConfig {
    let mut base = FacilityConfig::demo(seed);
    let slice = base.run_cores() as u32;
    let disk = base.cluster.worker.disk_bytes * base.cluster.workers as u64;
    base.tenants = (0..n_tenants)
        .map(|i| {
            vine_serve::TenantSpec::new(format!("tenant-{i}"), 1.0)
                .with_core_quota(slice)
                .with_byte_quota(disk / 2)
        })
        .collect();
    ShardedConfig {
        base,
        shards,
        store: Some(StoreConfig::demo()),
        work_stealing: true,
    }
}

/// The seeded open-loop schedule for one cell. The inter-arrival mean
/// scales with the population so the *aggregate* offered load is the
/// same at every population size; a realistic mix (rotated first specs,
/// resubmits, edits) exercises both cross-tenant sharing and the store.
fn schedule(n_tenants: usize, subs: usize, scale_down: usize, seed: u64) -> Vec<Submission> {
    LoadGen {
        mean_interarrival_s: 0.12 * n_tenants as f64,
        submissions_per_tenant: subs,
        scale_down,
        first_spec_by_tenant: true,
        ..LoadGen::default()
    }
    .generate(n_tenants, seed)
}

/// Run one cell once: build, ingest, drain; return the report plus the
/// tier's summed per-shard counters.
fn run_cell(
    n_tenants: usize,
    subs: usize,
    scale: usize,
    shards: usize,
) -> (ShardedReport, ShardCounters) {
    let mut fed =
        ShardedFacility::new(config(n_tenants, shards, SEED)).expect("sweep config is clean");
    fed.ingest(schedule(n_tenants, subs, scale, SEED));
    let totals = |fed: &ShardedFacility| {
        let mut t = ShardCounters::default();
        if let Some(store) = fed.store() {
            let store = store.borrow();
            for s in 0..store.shard_count() {
                let c = store.counters(s);
                t.hits += c.hits;
                t.misses += c.misses;
                t.evictions += c.evictions;
                t.puts += c.puts;
                t.fetched_bytes += c.fetched_bytes;
            }
        }
        t
    };
    let rep = fed.drain();
    let t = totals(&fed);
    (rep, t)
}

struct Row {
    shards: usize,
    tenants: usize,
    records: usize,
    warm_hit: f64,
    p99_wait_s: f64,
    store: ShardCounters,
    steals: u64,
    horizon_s: f64,
    digest: u64,
}

/// `vine-fig fig-shards [--gate] [--max-tenants N]`.
pub fn main(fig: &Fig) -> Result<(), String> {
    let max_tenants = fig.value("--max-tenants").unwrap_or(usize::MAX);

    if fig.flag("--gate") {
        // The CI cell: smallest population, shards=4, two in-process
        // replays. scripts/bench_gate.sh runs the whole binary twice
        // and additionally compares the printed digests across
        // processes and the warm-hit ratio against the committed
        // baseline.
        let (t, subs, scale) = TENANT_SWEEP[0];
        let (a, _) = run_cell(t, subs, scale, 4);
        let (b, _) = run_cell(t, subs, scale, 4);
        assert_eq!(
            a.digest(),
            b.digest(),
            "gate cell must replay bit-identically"
        );
        println!(
            "digest={:016x} warm_hit={:.6}",
            a.digest(),
            a.warm_hit_ratio()
        );
        return Ok(());
    }

    eprintln!("fig-shards: federation sweep (shards x tenants), seed {SEED} ...");
    let mut rows: Vec<Row> = Vec::new();
    for &(tenants, subs, scale) in TENANT_SWEEP.iter().filter(|(t, _, _)| *t <= max_tenants) {
        let mut warm_by_shards: Vec<(usize, f64)> = Vec::new();
        for shards in SHARD_COUNTS {
            // vine-audit: allow(A103) -- wall-time progress for the human at the terminal; cell results use only simulated time
            let t0 = std::time::Instant::now();
            let (rep, store) = run_cell(tenants, subs, scale, shards);
            let (replay, _) = run_cell(tenants, subs, scale, shards);
            assert_eq!(
                rep.digest(),
                replay.digest(),
                "cell (shards={shards}, tenants={tenants}) must replay bit-identically"
            );
            let row = Row {
                shards,
                tenants,
                records: rep.total_records(),
                warm_hit: rep.warm_hit_ratio(),
                p99_wait_s: rep.queue_wait_percentile(0.99),
                store,
                steals: rep.steals,
                horizon_s: rep.horizon_s(),
                digest: rep.digest(),
            };
            eprintln!(
                "  shards={} tenants={} warm-hit {:.1}% p99 wait {:.1}s steals {} ({:.1}s wall)",
                shards,
                tenants,
                100.0 * row.warm_hit,
                row.p99_wait_s,
                row.steals,
                t0.elapsed().as_secs_f64()
            );
            warm_by_shards.push((shards, row.warm_hit));
            rows.push(row);
        }
        let wh = |n: usize| warm_by_shards.iter().find(|(s, _)| *s == n).unwrap().1;
        let (one, eight) = (wh(1), wh(8));
        assert!(
            (one - eight).abs() <= 0.05 * one.max(1e-9),
            "tenants={tenants}: warm-hit at shards=8 ({eight:.4}) drifted >5% from shards=1 ({one:.4})"
        );
        eprintln!(
            "  tenants={tenants}: warm-hit flat across shards ({:.1}% -> {:.1}%)",
            100.0 * one,
            100.0 * eight
        );
    }

    let header = [
        "shards",
        "tenants",
        "records",
        "warm_hit",
        "p99_queue_wait_s",
        "store_hits",
        "store_misses",
        "store_evictions",
        "store_fetch_bytes",
        "steals",
        "horizon_s",
        "digest",
    ];
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                r.tenants.to_string(),
                r.records.to_string(),
                format!("{:.6}", r.warm_hit),
                format!("{:.3}", r.p99_wait_s),
                r.store.hits.to_string(),
                r.store.misses.to_string(),
                r.store.evictions.to_string(),
                r.store.fetched_bytes.to_string(),
                r.steals.to_string(),
                format!("{:.1}", r.horizon_s),
                format!("{:016x}", r.digest),
            ]
        })
        .collect();
    report::write_csv("shards.csv", &report::to_csv(&header, &csv_rows));

    let table: Vec<Vec<String>> = csv_rows.iter().map(|r| r[..5].to_vec()).collect();
    println!("\nFIG-SHARDS: federation scaling (store on, stealing on)\n");
    println!(
        "{}",
        report::render_table(
            &["Shards", "Tenants", "Records", "Warm-hit", "p99 wait"],
            &table
        )
    );
    println!("All cells replayed bit-identically; warm-hit flat across shard counts.");
    Ok(())
}
