//! The bit-identical digest gate, in-tree.
//!
//! CI's stream gate replays the reference dv3-small run through the
//! `vine-sim` CLI and `cmp`s the digest file against
//! `results/stream_baseline_digest.txt`. That catches regressions only
//! once a change reaches a gate job; this test runs the same
//! configuration through the library API so `cargo test` flags any
//! behavioral drift — event reordering, float-summation changes, RNG
//! stream movement — the moment it is introduced.
//!
//! Each case mirrors one `vine-sim` invocation exactly (seed 42,
//! preflight on, cache + obs tracing enabled), so its baseline file is
//! what `vine-sim ... --trace-out DIR` writes as `*.digest.txt`:
//!
//! * `vine-sim --workload dv3-small --scale 4 --workers 6 --stack 3`
//! * `vine-sim --workload dv3-medium` (200 workers, stack 4): hundreds
//!   of concurrent flows, so the fabric's fair-share solver and cached
//!   earliest completion do real work;
//! * `vine-sim --workload dv3-medium --chaos flaky-net`: the same run
//!   under link degradation and partition, which drives
//!   `Fabric::set_node_bandwidth` and `Fabric::cancel_flows_touching`.

use vine_analysis::WorkloadSpec;
use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::{EngineConfig, FaultPlan, Preflight, RecoveryPolicy, RunRequest};
use vine_simcore::units::gbit_per_sec;

/// Run `spec` on `workers` dv3-standard workers under `stack` at seed 42,
/// with an optional `--chaos` spec, and compare the obs digest against
/// the checked-in `results/{baseline}`.
fn assert_digest(
    spec: WorkloadSpec,
    workers: usize,
    stack: usize,
    chaos: Option<&str>,
    baseline: &str,
) {
    let cluster = ClusterSpec {
        workers,
        worker: WorkerSpec::dv3_standard(),
        manager_link_bw: gbit_per_sec(12.0),
    };
    let mut cfg = EngineConfig::stack(stack, cluster, 42);
    if let Some(chaos) = chaos {
        cfg = cfg.with_chaos(FaultPlan::parse(chaos).expect("valid chaos spec"));
    }
    let mut cfg = cfg.with_recovery(RecoveryPolicy::default());
    cfg.trace.cache = true;
    cfg.trace.obs = true;
    cfg.preflight = Preflight::Enforce;

    let r = RunRequest::new(cfg, spec.to_graph()).run();
    // Chaos runs may degrade gracefully (quarantined tasks); plain runs
    // must complete.
    if chaos.is_some() {
        assert!(r.finished(), "reference chaos run must finish");
    } else {
        assert!(r.completed(), "reference run must complete");
    }
    let digest = r
        .obs
        .as_ref()
        .expect("obs tracing was enabled")
        .digest
        .to_text();

    let path = format!("{}/../../results/{baseline}", env!("CARGO_MANIFEST_DIR"));
    let expected =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("results/{baseline}: {e}"));
    assert_eq!(
        digest, expected,
        "seed-42 digest drifted from results/{baseline}; if the change is intentional, \
         regenerate it with the vine-sim invocation in this file's header"
    );
}

#[test]
fn dv3_small_seed42_digest_matches_checked_in_baseline() {
    assert_digest(
        WorkloadSpec::dv3_small().scaled_down(4),
        6,
        3,
        None,
        "stream_baseline_digest.txt",
    );
}

#[test]
fn dv3_medium_seed42_digest_matches_checked_in_baseline() {
    assert_digest(
        WorkloadSpec::dv3_medium(),
        200,
        4,
        None,
        "dv3_medium_seed42_digest.txt",
    );
}

#[test]
fn dv3_medium_flaky_net_seed42_digest_matches_checked_in_baseline() {
    assert_digest(
        WorkloadSpec::dv3_medium(),
        200,
        4,
        Some("flaky-net"),
        "dv3_medium_flaky_net_seed42_digest.txt",
    );
}
