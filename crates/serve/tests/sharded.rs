//! Federation acceptance: the pinned single-pool report digest,
//! cross-shard warm hits through the shared tier, lockstep determinism,
//! and quota-gated work stealing.

use vine_analysis::WorkloadSpec;
use vine_serve::{assign_shard, FacilityConfig, ShardedConfig, ShardedFacility, Submission};
use vine_simcore::SimTime;
use vine_store::StoreConfig;

fn spec() -> WorkloadSpec {
    WorkloadSpec::dv3_small().scaled_down(20)
}

fn sub(tenant: usize, at: u64, label: &str) -> Submission {
    Submission {
        tenant,
        graph: spec().to_graph(),
        priority: 0,
        arrival: SimTime::from_secs(at),
        label: label.to_string(),
        stream_threshold: None,
    }
}

fn subs() -> Vec<Submission> {
    vec![sub(0, 0, "x"), sub(1, 3, "y"), sub(0, 5, "z")]
}

/// 64-bit FNV-1a (the repo's standard content hash).
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1_0000_01b3)
    })
}

/// FNV-1a of the single-pool `to_csv()` for `subs()` at seed 99, as the
/// standalone single-pool facility produced it before it became a shard.
const SINGLE_POOL_CSV_DIGEST: u64 = 0x7d64_3530_8428_62fe;

#[test]
fn single_shard_no_store_matches_pinned_facility_digest() {
    let mut fed = ShardedFacility::new(FacilityConfig::demo(99).into()).unwrap();
    fed.ingest(subs());
    let report = fed.drain();
    assert_eq!(report.shards.len(), 1);
    assert_eq!(report.steals, 0);
    assert_eq!(report.store_metrics, "");
    assert_eq!(
        fnv1a_64(report.shards[0].to_csv().as_bytes()),
        SINGLE_POOL_CSV_DIGEST,
        "the single-pool facility's report drifted"
    );
}

/// Two tenant names guaranteed to live on different shards of a 2-shard
/// federation.
fn split_tenant_names() -> (String, String) {
    let a = "atlas".to_string();
    let other = (0..64)
        .map(|i| format!("tenant-{i}"))
        .find(|n| assign_shard(n, 2) != assign_shard(&a, 2))
        .expect("64 names must split across 2 shards");
    (a, other)
}

fn two_shard_cfg(seed: u64, store: Option<StoreConfig>) -> ShardedConfig {
    let (a, b) = split_tenant_names();
    let mut base = FacilityConfig::demo(seed);
    base.tenants[0].name = a;
    base.tenants[1].name = b;
    ShardedConfig {
        base,
        shards: 2,
        store,
        work_stealing: false,
    }
}

#[test]
fn store_turns_cross_shard_recompute_into_warm_hits() {
    // Tenant 0 runs the spec cold on its home shard; much later tenant 1
    // submits the *same* spec on the *other* shard.
    let run = |store: Option<StoreConfig>| {
        let mut fed = ShardedFacility::new(two_shard_cfg(7, store)).unwrap();
        assert_ne!(fed.home_shard(0), fed.home_shard(1), "must split shards");
        fed.ingest(vec![sub(0, 0, "first"), sub(1, 10_000, "second")]);
        fed.drain()
    };

    // Without the tier, the second run is fully cold.
    let isolated = run(None);
    let second = |r: &vine_serve::ShardedReport| {
        r.shards
            .iter()
            .flat_map(|s| s.records.clone())
            .find(|rec| rec.label == "second")
            .expect("second run recorded")
    };
    let cold = second(&isolated);
    assert!(cold.completed);
    assert_eq!(
        cold.stats.memoized_tasks, 0,
        "no tier, no cross-shard warmth"
    );
    assert_eq!(cold.store_fetched_files, 0);

    // With it, shard A's intermediates satisfy shard B's run.
    let federated = run(Some(StoreConfig::demo()));
    let warm = second(&federated);
    assert!(warm.completed);
    assert!(warm.store_fetched_files > 0, "must pre-fetch from the tier");
    assert!(warm.store_fetch_bytes > 0);
    assert!(
        warm.store_fetch > vine_simcore::SimDur::ZERO,
        "fetches cost time"
    );
    assert_eq!(
        warm.stats.memoized_tasks as usize, warm.stats.tasks_total,
        "the identical resubmission must be fully satisfied from the tier"
    );
    assert!(
        warm.makespan < cold.makespan,
        "warm-from-store must beat recompute: {:?} vs {:?}",
        warm.makespan,
        cold.makespan
    );
}

#[test]
fn lockstep_replay_is_bit_identical() {
    for shards in [1usize, 2, 4] {
        let digest = |seed: u64| {
            let mut cfg = ShardedConfig::demo(seed);
            cfg.shards = shards;
            let mut fed = ShardedFacility::new(cfg).unwrap();
            fed.ingest(subs());
            fed.drain().digest()
        };
        assert_eq!(digest(42), digest(42), "shards={shards} must replay");
        assert_ne!(digest(42), digest(43), "seed must matter (shards={shards})");
    }
}

#[test]
fn idle_shards_steal_quota_gated_work() {
    // Both tenants homed on one shard of a 2-shard federation: the other
    // shard starts idle and must steal.
    let (a, _) = split_tenant_names();
    let partner = (0..64)
        .map(|i| format!("tenant-{i}"))
        .find(|n| assign_shard(n, 2) == assign_shard(&a, 2))
        .expect("some name shares atlas's shard");
    let build = |stealing: bool| {
        let mut base = FacilityConfig::demo(5);
        base.tenants[0].name = a.clone();
        base.tenants[1].name = partner.clone();
        // The demo quota (one slice per tenant) would gate every steal;
        // open it up so the backlog is worker-bound, not quota-bound.
        let cores = base.cluster.total_cores();
        base.tenants[0].max_inflight_cores = cores;
        base.tenants[1].max_inflight_cores = cores;
        let mut fed = ShardedFacility::new(ShardedConfig {
            base,
            shards: 2,
            store: Some(StoreConfig::demo()),
            work_stealing: stealing,
        })
        .unwrap();
        // A burst at t=0: one shard's cluster fits only two slices.
        fed.ingest(vec![
            sub(0, 0, "a0"),
            sub(0, 0, "a1"),
            sub(1, 0, "b0"),
            sub(1, 0, "b1"),
        ]);
        fed.drain()
    };

    let stolen = build(true);
    assert!(stolen.steals > 0, "an idle shard must have stolen");
    assert_eq!(stolen.total_records(), 4);

    let queued = build(false);
    assert_eq!(queued.total_records(), 4);
    assert!(
        stolen.queue_wait_percentile(1.0) < queued.queue_wait_percentile(1.0),
        "stealing must cut the worst queue wait: {} vs {}",
        stolen.queue_wait_percentile(1.0),
        queued.queue_wait_percentile(1.0)
    );
}

#[test]
fn stealing_respects_aggregate_core_quotas() {
    let (a, _) = split_tenant_names();
    let partner = (0..64)
        .map(|i| format!("tenant-{i}"))
        .find(|n| assign_shard(n, 2) == assign_shard(&a, 2))
        .expect("some name shares atlas's shard");
    let mut base = FacilityConfig::demo(5);
    base.tenants[0].name = a;
    base.tenants[1].name = partner;
    // Tenant 0 may hold only one slice federation-wide.
    base.tenants[0].max_inflight_cores = base.run_cores() as u32;
    let run_cores = base.run_cores();
    let mut fed = ShardedFacility::new(ShardedConfig {
        base,
        shards: 2,
        store: None,
        work_stealing: true,
    })
    .unwrap();
    fed.ingest(vec![sub(0, 0, "a0"), sub(0, 0, "a1"), sub(0, 0, "a2")]);
    let report = fed.drain();
    assert_eq!(report.total_records(), 3, "quota delays, never starves");
    // Reconstruct the federation-wide in-flight profile from the
    // records: at no instant may tenant 0 exceed its one-slice quota.
    let mut events: Vec<(SimTime, i64)> = Vec::new();
    for r in report.shards.iter().flat_map(|s| &s.records) {
        events.push((r.admitted, run_cores as i64));
        events.push((r.finished, -(run_cores as i64)));
    }
    events.sort();
    let mut inflight = 0i64;
    for (_, delta) in events {
        inflight += delta;
        assert!(
            inflight <= run_cores as i64,
            "aggregate quota violated: {inflight} cores in flight"
        );
    }
}
