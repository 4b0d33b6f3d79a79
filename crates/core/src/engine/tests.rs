use super::*;
use vine_cluster::ClusterSpec;
use vine_dag::TaskKind;
use vine_simcore::units::{GB, MB};

/// A small map+reduce graph: `n` process tasks into one accumulate.
fn small_graph(n: usize, chunk: u64, partial: u64) -> TaskGraph {
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..n {
        let f = g.add_external_file(format!("chunk{i}"), chunk);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[partial], 1.0);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 0.5);
    g
}

fn run_stack(stack: usize, n_tasks: usize) -> RunResult {
    let cluster = ClusterSpec::standard(4);
    let cfg = EngineConfig::stack(stack, cluster, 42).deterministic();
    RunRequest::new(cfg, small_graph(n_tasks, 10 * MB, MB)).run()
}

#[test]
fn all_stacks_complete_small_workload() {
    for stack in 1..=4 {
        let r = run_stack(stack, 24);
        assert!(r.completed(), "stack {stack}: {:?}", r.outcome);
        assert_eq!(r.stats.task_executions, 25);
        assert!(r.makespan_secs() > 0.0);
    }
}

#[test]
fn stack4_faster_than_stack1() {
    let s1 = run_stack(1, 48);
    let s4 = run_stack(4, 48);
    assert!(
        s4.makespan_secs() < s1.makespan_secs(),
        "stack4 {} !< stack1 {}",
        s4.makespan_secs(),
        s1.makespan_secs()
    );
}

#[test]
fn serverless_beats_standard_tasks_on_taskvine() {
    let s3 = run_stack(3, 48);
    let s4 = run_stack(4, 48);
    assert!(s4.makespan_secs() < s3.makespan_secs());
}

#[test]
fn workqueue_routes_all_bytes_through_manager() {
    let cluster = ClusterSpec::standard(3);
    let mut cfg = EngineConfig::stack2(cluster, 7).deterministic();
    cfg.trace.transfers = true;
    let r = RunRequest::new(cfg, small_graph(12, 10 * MB, MB)).run();
    assert!(r.completed());
    // No worker→worker transfers under Work Queue.
    let m = r.figures.transfers.unwrap();
    for s in 1..=3 {
        for d in 1..=3 {
            assert_eq!(m.get(s, d), 0, "peer transfer under WQ: {s}->{d}");
        }
    }
    assert!(r.stats.manager_bytes > 0);
    assert_eq!(r.stats.peer_bytes, 0);
}

#[test]
fn taskvine_moves_intermediates_peer_to_peer() {
    let cluster = ClusterSpec::standard(3);
    let mut cfg = EngineConfig::stack3(cluster, 7).deterministic();
    cfg.trace.transfers = true;
    let r = RunRequest::new(cfg, small_graph(12, 10 * MB, 5 * MB)).run();
    assert!(r.completed());
    // Partials reach the accumulator via peers, not the manager.
    assert!(r.stats.peer_bytes > 0, "no peer transfers under TaskVine");
    // Inputs come from the shared FS directly.
    assert!(r.stats.shared_fs_bytes >= 12 * 10 * MB);
    // The manager moved no payload bytes at all.
    assert_eq!(r.stats.manager_bytes, 0);
}

#[test]
fn deterministic_given_seed() {
    let a = run_stack(3, 24);
    let b = run_stack(3, 24);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.flows_completed, b.stats.flows_completed);
}

#[test]
fn different_seeds_vary_makespan() {
    let cluster = ClusterSpec::standard(4);
    let r1 = RunRequest::new(
        EngineConfig::stack4(cluster, 1).deterministic(),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    let r2 = RunRequest::new(
        EngineConfig::stack4(cluster, 2).deterministic(),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    // Task durations are drawn per-seed; makespans should differ.
    assert_ne!(r1.makespan, r2.makespan);
}

#[test]
fn warm_resubmit_memoizes_everything() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack3(cluster, 42).deterministic();

    let cold = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(cold.completed(), "{:?}", cold.outcome);
    assert_eq!(cold.stats.task_executions, 25);
    assert_eq!(cold.stats.memoized_tasks, 0);
    assert!(session.resident_bytes() > 0, "nothing retained");

    let warm = RunRequest::new(cfg, small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert_eq!(warm.stats.memoized_tasks, 25, "not fully warm");
    assert_eq!(warm.stats.task_executions, 0, "warm run re-executed");
    assert!(warm.stats.warm_hit_bytes > 0);
    assert!(
        warm.makespan < cold.makespan,
        "warm {} !< cold {}",
        warm.makespan_secs(),
        cold.makespan_secs()
    );
    assert_eq!(session.runs_completed(), 2);
}

#[test]
fn preemption_between_runs_reruns_only_what_was_lost() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    // No replication: every file is a sole copy, so clearing one
    // worker loses a strict subset of the intermediates.
    let mut cfg = EngineConfig::stack3(cluster, 7).deterministic();
    cfg.replica_target = 1;

    let cold = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(cold.completed());
    session.preempt_worker(0);

    let warm = RunRequest::new(cfg, small_graph(24, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(warm.completed(), "{:?}", warm.outcome);
    assert!(
        warm.stats.memoized_tasks > 0,
        "survivors' outputs should still hit"
    );
    assert!(
        warm.stats.task_executions > 0,
        "lost sole copies must re-run their producers"
    );
    assert!(warm.stats.task_executions < cold.stats.task_executions);
}

#[test]
fn memoization_off_reexecutes_despite_warm_caches() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let mut cfg = EngineConfig::stack3(cluster, 42).deterministic();
    cfg.memoization = false;

    RunRequest::new(cfg.clone(), small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    let again = RunRequest::new(cfg, small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(again.completed());
    assert_eq!(again.stats.memoized_tasks, 0);
    assert_eq!(again.stats.task_executions, 13);
}

#[test]
fn workqueue_session_never_memoizes() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack1(cluster, 42).deterministic();
    RunRequest::new(cfg.clone(), small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    let again = RunRequest::new(cfg, small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    assert!(again.completed());
    assert_eq!(again.stats.memoized_tasks, 0);
    assert_eq!(again.stats.task_executions, 13);
}

#[test]
fn session_geometry_mismatch_fails_cleanly() {
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&ClusterSpec::standard(2));
    let cfg = EngineConfig::stack3(cluster, 1).deterministic();
    let r = RunRequest::new(cfg, small_graph(6, 10 * MB, MB))
        .session(&mut session)
        .run();
    match r.outcome {
        RunOutcome::Failed { ref reason } => {
            assert!(reason.contains("geometry"), "{reason}")
        }
        _ => panic!("expected geometry failure"),
    }
}

#[test]
fn scaled_variant_does_not_false_hit_same_names() {
    // Same file names, different sizes: the size guard must treat the
    // residue as stale, not as warm hits.
    let cluster = ClusterSpec::standard(4);
    let mut session = SessionState::new(&cluster);
    let cfg = EngineConfig::stack3(cluster, 42).deterministic();
    RunRequest::new(cfg.clone(), small_graph(12, 10 * MB, MB))
        .session(&mut session)
        .run();
    let scaled = RunRequest::new(cfg, small_graph(12, 10 * MB, 2 * MB))
        .session(&mut session)
        .run();
    assert!(scaled.completed());
    assert_eq!(
        scaled.stats.memoized_tasks, 0,
        "stale same-name entries served as warm hits"
    );
    assert_eq!(scaled.stats.task_executions, 13);
}

#[test]
fn preemption_causes_retries_but_completes() {
    let cluster = ClusterSpec::standard(4);
    let mut cfg = EngineConfig::stack4(cluster, 11);
    // Brutal preemption: ~every 30 s per worker.
    cfg.preemption = vine_cluster::PreemptionModel {
        rate_per_sec: 1.0 / 30.0,
    };
    let r = RunRequest::new(cfg, small_graph(60, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.preemptions > 0, "no preemptions sampled");
    assert!(
        r.stats.task_executions >= 61,
        "no retries despite preemptions"
    );
}

#[test]
fn single_node_reduction_overflows_small_disks() {
    // 40 partials of 1 GB must converge on one worker with a 10 GB
    // disk: the Fig 11 failure.
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..40 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.2);
        partials.push(outs[0]);
    }
    g.add_task("acc", TaskKind::Accumulate, partials, &[MB], 0.5);

    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 10 * GB;
    let mut cfg = EngineConfig::stack4(cluster, 3).deterministic();
    // This test exercises the *runtime* overflow path; the pre-flight
    // lint (R001) would reject the plan before any event fires.
    cfg.preflight = Preflight::Off;
    let r = RunRequest::new(cfg, g).run();
    assert!(
        r.stats.cache_overflow_failures > 0,
        "expected cache overflow failures"
    );
}

#[test]
fn tree_reduction_survives_small_disks() {
    let mut g = TaskGraph::new();
    let mut partials = Vec::new();
    for i in 0..40 {
        let f = g.add_external_file(format!("c{i}"), MB);
        let (_, outs) = g.add_task(format!("p{i}"), TaskKind::Process, vec![f], &[GB], 0.2);
        partials.push(outs[0]);
    }
    vine_dag::rewrite::add_tree_reduce(&mut g, "acc", &partials, 4, MB, 0.02);

    // 40 GB of live intermediates over 4 workers: a single-node
    // reduction needs > 40 GB on ONE worker (see the test above, which
    // fails at 10 GB); the tree spreads and drains them. 32 GB leaves
    // room for a worker's worst case: 12 cores' pinned partials plus
    // in-flight reduce inputs.
    let mut cluster = ClusterSpec::standard(4);
    cluster.worker.disk_bytes = 32 * GB;
    let mut cfg = EngineConfig::stack4(cluster, 3).deterministic();
    // Isolate the reduction-shape effect from replication's extra
    // copies.
    cfg.replica_target = 1;
    // The static R001 bound (12 concurrent reduces x ~5 GB pins) is
    // conservative at this deliberately tight disk size; let the run
    // demonstrate the tree shape actually fits.
    cfg.preflight = Preflight::Off;
    let r = RunRequest::new(cfg, g).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert_eq!(r.stats.cache_overflow_failures, 0);
}

#[test]
fn dask_fails_at_tb_scale_by_policy() {
    let cluster = ClusterSpec::standard(10);
    let cfg = EngineConfig::dask_distributed(cluster, 5);
    let mut g = TaskGraph::new();
    // 600 GB of external input exceeds the instability threshold.
    for i in 0..600 {
        g.add_external_file(format!("big{i}"), GB);
    }
    let r = RunRequest::new(cfg, g).run();
    assert!(!r.completed());
}

#[test]
fn dask_runs_small_workloads() {
    let cluster = ClusterSpec::standard(4);
    let cfg = EngineConfig::dask_distributed(cluster, 5).deterministic();
    let r = RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
}

#[test]
fn empty_graph_completes_instantly() {
    let cluster = ClusterSpec::standard(2);
    let cfg = EngineConfig::stack4(cluster, 1).deterministic();
    let r = RunRequest::new(cfg, TaskGraph::new()).run();
    assert!(r.completed());
    assert_eq!(r.makespan, SimDur::ZERO);
}

#[test]
fn gantt_trace_records_worker_activity() {
    let cluster = ClusterSpec::standard(3);
    let cfg = EngineConfig::stack4(cluster, 2)
        .deterministic()
        .with_full_traces();
    let r = RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run();
    let g = r.figures.gantt.unwrap();
    assert!(g.entity_count() >= 2, "work not spread over workers");
    assert_eq!(g.intervals().len(), 25);
}

#[test]
fn running_series_peaks_at_cluster_width_or_less() {
    let cluster = ClusterSpec::standard(2); // 24 cores
    let cfg = EngineConfig::stack4(cluster, 2).deterministic();
    let r = RunRequest::new(cfg, small_graph(100, MB, MB)).run();
    assert!(r.completed());
    assert!(r.figures.running_series.max_value() <= 24.0);
    assert!(r.figures.running_series.max_value() > 0.0);
}

#[test]
fn remote_inputs_slow_the_run_but_complete() {
    let cluster = ClusterSpec::standard(4);
    let mk = |source| {
        let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
        cfg.data_source = source;
        RunRequest::new(cfg, small_graph(48, 50 * MB, MB)).run()
    };
    let site = mk(crate::config::DataSource::SharedFilesystem);
    let wan = mk(crate::config::DataSource::RemoteXrootd {
        wan_bandwidth: 100e6, // deliberately skinny pipe
        per_stream: 10e6,
    });
    assert!(site.completed() && wan.completed());
    assert!(
        wan.makespan_secs() > site.makespan_secs() * 1.5,
        "wan {} vs site {}",
        wan.makespan_secs(),
        site.makespan_secs()
    );
    // WAN bytes are accounted as external-source reads.
    assert!(wan.stats.shared_fs_bytes >= 48 * 50 * MB);
}

#[test]
fn remote_inputs_work_under_workqueue_too() {
    let cluster = ClusterSpec::standard(3);
    let mut cfg = EngineConfig::stack2(cluster, 5).deterministic();
    cfg.data_source = crate::config::DataSource::remote_xrootd_default();
    let r = RunRequest::new(cfg, small_graph(12, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
}

#[test]
fn replication_creates_second_copies() {
    let cluster = ClusterSpec::standard(4);
    let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
    cfg.replica_target = 2;
    let with = RunRequest::new(cfg.clone(), small_graph(24, 10 * MB, 10 * MB)).run();
    cfg.replica_target = 1;
    let without = RunRequest::new(cfg, small_graph(24, 10 * MB, 10 * MB)).run();
    assert!(with.completed() && without.completed());
    // Replication moves strictly more peer bytes.
    assert!(
        with.stats.peer_bytes > without.stats.peer_bytes,
        "with {} vs without {}",
        with.stats.peer_bytes,
        without.stats.peer_bytes
    );
}

#[test]
fn round_robin_placement_completes() {
    let cluster = ClusterSpec::standard(4);
    let mut cfg = EngineConfig::stack4(cluster, 5).deterministic();
    cfg.placement = crate::config::Placement::RoundRobin;
    let r = RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert_eq!(r.stats.task_executions, 25);
}

#[test]
fn import_hoisting_speeds_up_serverless() {
    let cluster = ClusterSpec::standard(4);
    let base = EngineConfig::stack4(cluster, 9).deterministic();
    let mut unhoisted = base.clone();
    unhoisted.exec_mode = ExecMode::FunctionCalls {
        hoist_imports: false,
    };
    let g = || small_graph(96, MB, MB);
    let fast = RunRequest::new(base, g()).run();
    let slow = RunRequest::new(unhoisted, g()).run();
    assert!(fast.completed() && slow.completed());
    assert!(
        fast.makespan_secs() < slow.makespan_secs(),
        "hoisted {} !< unhoisted {}",
        fast.makespan_secs(),
        slow.makespan_secs()
    );
}

// ----- chaos + recovery ------------------------------------------------

use crate::recovery::RecoveryPolicy;
use vine_chaos::{ExitClass, Fault, FaultPlan};
use vine_simcore::SimTime;

fn chaos_cfg(plan: FaultPlan, policy: RecoveryPolicy) -> EngineConfig {
    EngineConfig::stack3(ClusterSpec::standard(4), 42)
        .deterministic()
        .with_chaos(plan)
        .with_recovery(policy)
}

#[test]
fn transient_failures_retry_and_complete() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.2,
        exit: ExitClass::Crash,
    });
    let r = RunRequest::new(
        chaos_cfg(plan, RecoveryPolicy::default()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.transient_failures > 0, "no failures injected");
    assert_eq!(r.stats.retries, r.stats.transient_failures);
    assert!(r.stats.backoff_time_us > 0, "retries skipped backoff");
}

#[test]
fn fragile_policy_degrades_instead_of_aborting() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.5,
        exit: ExitClass::Oom,
    });
    let r = RunRequest::new(
        chaos_cfg(plan, RecoveryPolicy::fragile()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(!r.completed(), "p=0.5 with zero budget should quarantine");
    let RunOutcome::Degraded { quarantined_tasks } = r.outcome else {
        panic!("expected Degraded, got {:?}", r.outcome);
    };
    assert_eq!(quarantined_tasks, r.stats.quarantined_tasks);
    assert!(quarantined_tasks > 0);
}

#[test]
fn exhausted_budget_without_degradation_fails_the_run() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 1.0,
        exit: ExitClass::Crash,
    });
    let policy = RecoveryPolicy {
        retry_budget: 1,
        graceful_degradation: false,
        ..RecoveryPolicy::default()
    };
    let r = RunRequest::new(chaos_cfg(plan, policy), small_graph(8, 10 * MB, MB)).run();
    assert!(
        matches!(r.outcome, RunOutcome::Failed { ref reason } if reason.contains("budget")),
        "{:?}",
        r.outcome
    );
}

#[test]
fn speculation_beats_stragglers() {
    let plan = || {
        FaultPlan::none().with(Fault::Straggler {
            start: SimTime::from_secs(0),
            duration: SimDur::from_secs(1_000_000),
            slow_factor: 10.0,
            fraction: 0.5,
        })
    };
    let policy = RecoveryPolicy {
        speculation_factor: 1.5,
        ..RecoveryPolicy::default()
    };
    let run = |spec: bool| {
        RunRequest::new(
            chaos_cfg(plan(), policy.with_speculation(spec)),
            small_graph(24, 10 * MB, MB),
        )
        .run()
    };
    let with = run(true);
    let without = run(false);
    assert!(with.completed() && without.completed());
    assert!(with.stats.speculative_wins > 0, "no duplicate ever won");
    assert!(
        with.makespan < without.makespan,
        "speculation {} !< baseline {}",
        with.makespan_secs(),
        without.makespan_secs()
    );
}

#[test]
fn timeouts_abandon_stragglers() {
    let plan = FaultPlan::none().with(Fault::Straggler {
        start: SimTime::from_secs(0),
        duration: SimDur::from_secs(1_000_000),
        slow_factor: 20.0,
        fraction: 0.4,
    });
    let policy = RecoveryPolicy {
        timeout_factor: 3.0,
        ..RecoveryPolicy::default()
    };
    let r = RunRequest::new(chaos_cfg(plan, policy), small_graph(24, 10 * MB, MB)).run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(r.stats.task_timeouts > 0, "20x stragglers never timed out");
}

#[test]
fn corruption_is_detected_on_reread() {
    // Bitrot only strikes unpinned residents, and is only *noticed* on
    // a later cache-hit read. Build chains a -> b -> c where a and c
    // both read a shared external file X but the long b stage does
    // not: while b computes, X sits unpinned in the worker cache and
    // rots; c's re-read hits the cache, detects the mismatch, and
    // re-stages from the shared FS.
    let mut g = TaskGraph::new();
    let shared = g.add_external_file("shared", 50 * MB);
    for i in 0..8 {
        let (_, a) = g.add_task(format!("a{i}"), TaskKind::Process, vec![shared], &[MB], 1.0);
        let (_, b) = g.add_task(format!("b{i}"), TaskKind::Process, vec![a[0]], &[MB], 8.0);
        g.add_task(
            format!("c{i}"),
            TaskKind::Process,
            vec![b[0], shared],
            &[MB],
            1.0,
        );
    }
    let plan = FaultPlan::none().with(Fault::CacheCorruption { rate_per_sec: 2.0 });
    let r = RunRequest::new(chaos_cfg(plan, RecoveryPolicy::default()), g).run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.corruptions_detected > 0, "bitrot never detected");
}

#[test]
fn plan_preemption_supersedes_legacy_model() {
    let plan = FaultPlan::none().with(Fault::Preemption {
        rate_per_sec: 1.0 / 30.0,
    });
    let r = RunRequest::new(
        chaos_cfg(plan, RecoveryPolicy::default()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert!(r.completed(), "{:?}", r.outcome);
    assert!(r.stats.preemptions > 0, "plan preemption never fired");
}

#[test]
fn blocklisting_sidelines_failing_workers_but_not_all() {
    let plan = FaultPlan::none().with(Fault::TaskFailure {
        prob: 0.6,
        exit: ExitClass::IoError,
    });
    let policy = RecoveryPolicy {
        retry_budget: 20,
        blocklist_after: 2,
        ..RecoveryPolicy::default()
    };
    let r = RunRequest::new(chaos_cfg(plan, policy), small_graph(24, 10 * MB, MB)).run();
    assert!(r.finished(), "{:?}", r.outcome);
    assert!(r.stats.blocklisted_workers > 0, "nothing blocklisted");
    assert!(
        r.stats.blocklisted_workers < 4,
        "the last worker must stay schedulable"
    );
}

#[test]
fn every_preset_finishes_under_hardened_recovery() {
    for preset in FaultPlan::PRESETS {
        for seed in [42u64, 1337] {
            let plan = FaultPlan::preset(preset).unwrap().with_seed(seed);
            let r = RunRequest::new(
                chaos_cfg(plan, RecoveryPolicy::hardened()),
                small_graph(24, 10 * MB, MB),
            )
            .run();
            assert!(r.finished(), "{preset}/seed{seed}: {:?}", r.outcome);
        }
    }
}

#[test]
fn chaos_runs_are_bit_reproducible() {
    let run = |chaos_seed: u64| {
        let plan = FaultPlan::none()
            .with_seed(chaos_seed)
            .with(Fault::TaskFailure {
                prob: 0.25,
                exit: ExitClass::Crash,
            })
            .with(Fault::Straggler {
                start: SimTime::from_secs(0),
                duration: SimDur::from_secs(1_000_000),
                slow_factor: 3.0,
                fraction: 0.5,
            });
        let cfg = chaos_cfg(plan, RecoveryPolicy::hardened()).with_obs();
        RunRequest::new(cfg, small_graph(24, 10 * MB, MB)).run()
    };
    let a = run(7);
    let b = run(7);
    assert!(a.stats.transient_failures > 0, "chaos never fired");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.stats.transient_failures, b.stats.transient_failures);
    assert_eq!(
        a.obs.unwrap().digest.to_text(),
        b.obs.unwrap().digest.to_text(),
        "same chaos seed must replay byte-identically"
    );
    let c = run(8);
    assert_ne!(
        a.makespan, c.makespan,
        "different chaos seeds should explore different fault schedules"
    );
}

#[test]
fn empty_plan_matches_the_prechaos_engine_exactly() {
    // The chaos hub must stay untouched when no faults are planned:
    // a run with an empty plan is byte-identical to one that never
    // heard of vine-chaos.
    let base = run_stack(3, 24);
    let chaotic = RunRequest::new(
        chaos_cfg(FaultPlan::none(), RecoveryPolicy::default()),
        small_graph(24, 10 * MB, MB),
    )
    .run();
    assert_eq!(base.makespan, chaotic.makespan);
    assert_eq!(base.stats.flows_completed, chaotic.stats.flows_completed);
    assert_eq!(base.stats.task_executions, chaotic.stats.task_executions);
}
