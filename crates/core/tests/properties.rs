//! Property-based tests of the simulation engine: for arbitrary workload
//! shapes, seeds, and scheduler configurations, runs complete with
//! conserved task counts, bounded concurrency, and deterministic results.

use proptest::prelude::*;
use vine_analysis::{ReductionShape, WorkloadSpec};
use vine_cluster::{ClusterSpec, PreemptionModel};
use vine_core::{EngineConfig, Placement, RunRequest};
use vine_dag::{TaskGraph, TaskKind};

/// A small random layered DAG.
fn random_graph(layers: &[usize], fan: usize, out_mb: u64) -> TaskGraph {
    let mb = 1_000_000;
    let mut g = TaskGraph::new();
    let mut prev: Vec<vine_dag::FileId> = (0..4)
        .map(|i| g.add_external_file(format!("ext{i}"), 20 * mb))
        .collect();
    for (li, &width) in layers.iter().enumerate() {
        let mut next = Vec::new();
        for w in 0..width {
            let k = (1 + (li + w) % fan).min(prev.len());
            let inputs: Vec<_> = (0..k).map(|j| prev[(w + j) % prev.len()]).collect();
            let kind = if li % 2 == 0 {
                TaskKind::Process
            } else {
                TaskKind::Accumulate
            };
            let (_, outs) = g.add_task(format!("t{li}.{w}"), kind, inputs, &[out_mb * mb], 0.3);
            next.extend(outs);
        }
        prev = next;
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every stack completes any feasible random DAG, exactly covering all
    /// tasks, with concurrency bounded by the core count.
    #[test]
    fn stacks_complete_random_dags(
        stack in 1usize..=4,
        layers in proptest::collection::vec(1usize..10, 1..4),
        fan in 1usize..4,
        seed in 0u64..1000,
        workers in 2usize..6,
    ) {
        let g = random_graph(&layers, fan, 2);
        let total = g.task_count();
        let cluster = ClusterSpec::standard(workers);
        let cfg = EngineConfig::stack(stack, cluster, seed).deterministic();
        let r = RunRequest::new(cfg, g).run();
        prop_assert!(r.completed(), "stack {} failed: {:?}", stack, r.outcome);
        prop_assert_eq!(r.stats.task_executions, total as u64);
        prop_assert!(r.figures.running_series.max_value() <= (workers * 12) as f64);
        prop_assert_eq!(r.figures.waiting_series.last().map(|(_, v)| v), Some(0.0));
    }

    /// Identical configuration => identical result, for every stack.
    #[test]
    fn engine_is_deterministic(
        stack in 1usize..=4,
        seed in 0u64..10_000,
    ) {
        let spec = WorkloadSpec::dv3_small().scaled_down(8);
        let mk = || {
            let cfg = EngineConfig::stack(stack, ClusterSpec::standard(3), seed);
            RunRequest::new(cfg, spec.to_graph()).run()
        };
        let (a, b) = (mk(), mk());
        prop_assert_eq!(a.makespan, b.makespan);
        prop_assert_eq!(a.stats.task_executions, b.stats.task_executions);
        prop_assert_eq!(a.stats.peer_bytes, b.stats.peer_bytes);
        prop_assert_eq!(a.stats.manager_bytes, b.stats.manager_bytes);
    }

    /// Preemption never breaks completion on TaskVine configurations, and
    /// executions never drop below the task count.
    #[test]
    fn preemption_robustness(
        rate_denom in 50.0f64..2000.0,
        seed in 0u64..500,
        replicas in 1u32..3,
    ) {
        let spec = WorkloadSpec::dv3_small().scaled_down(8);
        let total = spec.to_graph().task_count() as u64;
        let mut cfg = EngineConfig::stack4(ClusterSpec::standard(4), seed);
        cfg.preemption = PreemptionModel { rate_per_sec: 1.0 / rate_denom };
        cfg.replica_target = replicas;
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        prop_assert!(r.completed(), "{:?}", r.outcome);
        prop_assert!(r.stats.task_executions >= total);
    }

    /// Reduction shape and placement never change *whether* a feasible
    /// workload completes, only how fast.
    #[test]
    fn shape_and_placement_only_affect_speed(
        arity in 2usize..10,
        placement_aware in any::<bool>(),
        seed in 0u64..500,
    ) {
        let spec = WorkloadSpec::dv3_small()
            .scaled_down(8)
            .with_reduction(ReductionShape::Tree { arity });
        let mut cfg = EngineConfig::stack4(ClusterSpec::standard(4), seed).deterministic();
        cfg.placement = if placement_aware { Placement::DataAware } else { Placement::RoundRobin };
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        prop_assert!(r.completed(), "{:?}", r.outcome);
        prop_assert!(r.makespan_secs() > 0.0);
    }
}
