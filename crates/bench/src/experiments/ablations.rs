//! Ablation studies of TaskVine's design choices.
//!
//! Each knob the paper credits for the reshaping win is isolated here:
//!
//! * **replication** (§IV: the manager "compensates by replicating data or
//!   re-running tasks") — makespan and re-run count under preemption with
//!   and without a second replica of intermediates;
//! * **data-aware placement** (§IV-B "Retaining Data": tasks scheduled
//!   "where data dependencies are already available") — vs round-robin;
//! * **peer-transfer throttling** (§IV-B: "the manager manages the number
//!   of concurrent peer transfers ... so that uncontrolled peer transfers
//!   do not create network contention") — sweep of the per-worker limit;
//! * **data source** (§III-A/§IV-A: wide-area XRootD vs site storage —
//!   "it was impractical to rely on the wide area XROOTD federation").

use vine_analysis::WorkloadSpec;
use vine_cluster::{ClusterSpec, PreemptionModel};
use vine_core::{DataSource, EngineConfig, Placement, RunRequest, RunResult};

use super::{EngineRun, Fig};
use crate::report;
use vine_simcore::units::fmt_bytes;

/// A labeled makespan measurement with supporting counters.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Which configuration variant ran.
    pub variant: String,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Task executions (re-runs visible here).
    pub executions: u64,
    /// Peer transfer volume, bytes.
    pub peer_bytes: u64,
    /// Whether the run completed.
    pub completed: bool,
}

fn row(variant: String, r: RunResult) -> AblationRow {
    AblationRow {
        variant,
        makespan_s: r.makespan_secs(),
        executions: r.stats.task_executions,
        peer_bytes: r.stats.peer_bytes,
        completed: r.completed(),
    }
}

/// Replication on/off under increasing preemption pressure.
pub fn replication(seed: u64, scale_down: usize) -> Vec<AblationRow> {
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down.max(1));
    let workers = (200 / scale_down.max(1)).max(4);
    let mut out = Vec::new();
    for (plabel, preemption) in [
        ("calm", PreemptionModel::none()),
        ("campus", PreemptionModel::campus_pool()),
        (
            "stormy",
            PreemptionModel {
                rate_per_sec: 1.0 / 600.0,
            },
        ),
    ] {
        for replicas in [1u32, 2] {
            let mut cfg = EngineConfig::stack4(ClusterSpec::standard(workers), seed);
            cfg.preemption = preemption;
            cfg.replica_target = replicas;
            let r = RunRequest::new(cfg, spec.to_graph()).run();
            out.push(row(format!("{plabel}/replicas={replicas}"), r));
        }
    }
    out
}

/// Data-aware vs round-robin placement (TaskVine, serverless).
pub fn placement(seed: u64, scale_down: usize) -> Vec<AblationRow> {
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down.max(1));
    let workers = (200 / scale_down.max(1)).max(4);
    [Placement::DataAware, Placement::RoundRobin]
        .into_iter()
        .map(|p| {
            let mut cfg =
                EngineConfig::stack4(ClusterSpec::standard(workers), seed).deterministic();
            cfg.placement = p;
            let r = RunRequest::new(cfg, spec.to_graph()).run();
            row(format!("{p:?}"), r)
        })
        .collect()
}

/// Sweep of the per-worker concurrent peer-transfer limit.
pub fn throttle(seed: u64, scale_down: usize) -> Vec<AblationRow> {
    let spec = WorkloadSpec::rs_triphoton().scaled_down(scale_down.max(1));
    let workers = (40 / scale_down.max(1)).max(4);
    [1usize, 2, 3, 8, 64]
        .into_iter()
        .map(|limit| {
            let mut cfg =
                EngineConfig::stack4(ClusterSpec::standard(workers), seed).deterministic();
            cfg.max_peer_transfers_per_worker = limit;
            let r = RunRequest::new(cfg, spec.to_graph()).run();
            row(format!("throttle={limit}"), r)
        })
        .collect()
}

/// Site storage vs on-demand wide-area XRootD.
///
/// The worker count stays fixed: the WAN hurts when the cluster's input
/// demand exceeds the wide-area path, which is a property of cluster
/// width, not workload size.
pub fn datasource(seed: u64, scale_down: usize) -> Vec<AblationRow> {
    let spec = WorkloadSpec::dv3_medium().scaled_down(scale_down.max(1));
    let workers = 40;
    [
        ("site (VAST)", DataSource::SharedFilesystem),
        ("wide-area XRootD", DataSource::remote_xrootd_default()),
    ]
    .into_iter()
    .map(|(label, src)| {
        let mut cfg = EngineConfig::stack4(ClusterSpec::standard(workers), seed).deterministic();
        cfg.data_source = src;
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        row(label.to_string(), r)
    })
    .collect()
}

/// Print one ablation table and write it to `results/ablation_<slug>.csv`.
fn section(title: &str, rows: &[AblationRow]) {
    let header = [
        "Variant",
        "Runtime",
        "Task executions",
        "Peer transfer volume",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                if r.completed {
                    format!("{:.0}s", r.makespan_s)
                } else {
                    "FAILED".into()
                },
                r.executions.to_string(),
                fmt_bytes(r.peer_bytes),
            ]
        })
        .collect();
    println!("\n== {title} ==\n");
    println!("{}", report::render_table(&header, &data));
    let slug: String = title
        .split_whitespace()
        .next()
        .unwrap_or("x")
        .chars()
        .filter(|c| c.is_ascii_alphanumeric() || *c == '-')
        .collect();
    let file = format!("ablation_{}.csv", slug.to_lowercase());
    report::write_csv(&file, &report::to_csv(&header, &data));
}

/// `vine-fig ablations [scale_down]` (default 10); see DESIGN.md §5.
/// Records the Stack 4 DV3-Large baseline.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0);
    eprintln!("Ablations at scale 1/{scale} ...");
    let cfg = EngineConfig::stack4(ClusterSpec::standard((200 / scale.max(1)).max(4)), 42);
    let graph = |spec: WorkloadSpec| spec.scaled_down(scale.max(1)).to_graph();
    let runs = vec![
        EngineRun::new(
            "ablations-baseline",
            cfg.clone(),
            graph(WorkloadSpec::dv3_large()),
        )
        .recorded(),
        EngineRun::new(
            "ablations-rs-triphoton",
            cfg.clone(),
            graph(WorkloadSpec::rs_triphoton()),
        ),
        EngineRun::new(
            "ablations-dv3-medium",
            cfg,
            graph(WorkloadSpec::dv3_medium()),
        ),
    ];
    fig.preflight(&runs);
    section(
        "Replication under preemption (DV3-Large)",
        &replication(42, scale),
    );
    section("Placement policy (DV3-Large)", &placement(42, scale));
    section(
        "Peer-transfer throttle (RS-TriPhoton)",
        &throttle(42, scale),
    );
    section(
        "Datasource: site storage vs wide-area XRootD (DV3-Medium)",
        &datasource(42, scale),
    );
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replication_reduces_reruns_under_storm() {
        let rows = replication(5, 40);
        let find = |v: &str| rows.iter().find(|r| r.variant == v).unwrap();
        // Replication costs (almost) nothing when calm...
        let calm1 = find("calm/replicas=1");
        let calm2 = find("calm/replicas=2");
        assert!(calm2.makespan_s < calm1.makespan_s * 1.3);
        // ...and cuts re-runs when stormy.
        let storm1 = find("stormy/replicas=1");
        let storm2 = find("stormy/replicas=2");
        assert!(storm1.completed && storm2.completed);
        assert!(
            storm2.executions <= storm1.executions,
            "replication did not reduce re-runs: {} vs {}",
            storm2.executions,
            storm1.executions
        );
    }

    #[test]
    fn data_aware_placement_moves_fewer_bytes() {
        let rows = placement(5, 40);
        let aware = &rows[0];
        let oblivious = &rows[1];
        assert!(aware.completed && oblivious.completed);
        assert!(
            aware.peer_bytes < oblivious.peer_bytes,
            "data-aware {} !< round-robin {}",
            aware.peer_bytes,
            oblivious.peer_bytes
        );
    }

    #[test]
    fn over_throttling_slows_the_workflow() {
        let rows = throttle(5, 20);
        assert!(rows.iter().all(|r| r.completed));
        let t1 = rows[0].makespan_s; // limit 1
        let t3 = rows[2].makespan_s; // limit 3 (default)
        assert!(
            t3 <= t1,
            "limit 3 ({t3}) should not be slower than limit 1 ({t1})"
        );
    }

    #[test]
    fn remote_xrootd_is_much_slower() {
        let rows = datasource(5, 4);
        let site = &rows[0];
        let wan = &rows[1];
        assert!(site.completed && wan.completed);
        assert!(
            wan.makespan_s > site.makespan_s * 1.5,
            "WAN {} not clearly slower than site {}",
            wan.makespan_s,
            site.makespan_s
        );
    }
}
