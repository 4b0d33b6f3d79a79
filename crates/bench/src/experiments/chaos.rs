//! The chaos matrix (`vine-fig fig-chaos`): every fault-injection preset
//! crossed with the recovery-policy ladder, on DV3-Small. See DESIGN.md
//! §10.
//!
//! Writes `results/chaos.csv`. The `stragglers` rows are the headline:
//! the `speculative` policy (default + speculative re-execution) must
//! beat the plain `default` policy on makespan, reproducing the
//! straggler-mitigation argument.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, FaultPlan, RecoveryPolicy, RunOutcome, RunRequest};

use super::Fig;
use crate::report;

struct Row {
    preset: &'static str,
    policy: &'static str,
    outcome: String,
    makespan_s: f64,
    retries: u64,
    timeouts: u64,
    transient: u64,
    spec_wins: u64,
    quarantined: u64,
    blocklisted: u64,
    corruptions: u64,
    preemptions: u64,
}

fn policies() -> Vec<(&'static str, RecoveryPolicy)> {
    vec![
        ("fragile", RecoveryPolicy::fragile()),
        ("default", RecoveryPolicy::default()),
        (
            "speculative",
            RecoveryPolicy {
                speculation: true,
                speculation_factor: 1.75,
                ..RecoveryPolicy::default()
            },
        ),
        ("hardened", RecoveryPolicy::hardened()),
    ]
}

/// `vine-fig fig-chaos [scale_down]` (default 4). Fails unless
/// speculation beats the plain policy on the stragglers preset.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0);
    // Deliberately few workers: the workload then runs in several waves,
    // so time-windowed faults (stragglers, link degradation) catch
    // attempts started inside their windows instead of expiring before
    // the second wave begins.
    let workers = 6;
    eprintln!("Chaos matrix on DV3-Small at scale 1/{scale}, {workers} workers ...");

    let mut rows = Vec::new();
    for preset in FaultPlan::PRESETS {
        for (pname, policy) in policies() {
            let plan = FaultPlan::preset(preset).unwrap().with_seed(42);
            let cfg = EngineConfig::stack3(ClusterSpec::standard(workers), 42)
                .deterministic()
                .with_chaos(plan)
                .with_recovery(policy);
            let graph = WorkloadSpec::dv3_small()
                .scaled_down(scale.max(1))
                .to_graph();
            let r = RunRequest::new(cfg, graph).run();
            let outcome = match r.outcome {
                RunOutcome::Completed => "completed".to_string(),
                RunOutcome::Degraded { .. } => "degraded".to_string(),
                RunOutcome::Failed { .. } => "FAILED".to_string(),
            };
            rows.push(Row {
                preset,
                policy: pname,
                outcome,
                makespan_s: r.makespan_secs(),
                retries: r.stats.retries,
                timeouts: r.stats.task_timeouts,
                transient: r.stats.transient_failures,
                spec_wins: r.stats.speculative_wins,
                quarantined: r.stats.quarantined_tasks,
                blocklisted: r.stats.blocklisted_workers,
                corruptions: r.stats.corruptions_detected,
                preemptions: r.stats.preemptions,
            });
        }
    }

    let header = [
        "Preset",
        "Policy",
        "Outcome",
        "Makespan",
        "Retries",
        "Timeouts",
        "Transient",
        "SpecWins",
        "Quarantined",
        "Blocklisted",
        "Corruptions",
        "Preemptions",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.preset.to_string(),
                r.policy.to_string(),
                r.outcome.clone(),
                format!("{:.1}s", r.makespan_s),
                r.retries.to_string(),
                r.timeouts.to_string(),
                r.transient.to_string(),
                r.spec_wins.to_string(),
                r.quarantined.to_string(),
                r.blocklisted.to_string(),
                r.corruptions.to_string(),
                r.preemptions.to_string(),
            ]
        })
        .collect();
    println!("\n== Chaos matrix (DV3-Small) ==\n");
    println!("{}", report::render_table(&header, &data));
    report::write_csv("chaos.csv", &report::to_csv(&header, &data));

    let find = |preset: &str, policy: &str| {
        rows.iter()
            .find(|r| r.preset == preset && r.policy == policy)
            .expect("grid is complete")
    };
    let plain = find("stragglers", "default");
    let spec = find("stragglers", "speculative");
    println!(
        "\nstragglers: default {:.1}s vs speculative {:.1}s ({} duplicate wins)",
        plain.makespan_s, spec.makespan_s, spec.spec_wins
    );
    if spec.makespan_s >= plain.makespan_s {
        return Err("WARNING: speculation did not reduce the straggler makespan".into());
    }
    Ok(())
}
