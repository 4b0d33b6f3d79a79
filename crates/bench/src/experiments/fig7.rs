//! Fig 7 — data-transfer heatmap: Work Queue vs TaskVine peer transfers.
//!
//! The paper: "When using Work Queue, all data transfer is between the
//! manager (node 0) and each of the workers individually. Upwards of 40 GB
//! is transmitted to each worker. When using TaskVine and peer transfers,
//! the maximum amount of data transferred between any two nodes tops off
//! at around 4 GB."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest};
use vine_simcore::trace::TransferMatrix;

use super::{dv3_large_stacks, Fig};
use crate::{plot, report};
use vine_simcore::trace::matrix_to_csv;
use vine_simcore::units::fmt_bytes;

/// Heatmap summary for one scheduler.
#[derive(Clone, Debug)]
pub struct HeatmapSummary {
    /// Scheduler label.
    pub label: &'static str,
    /// Maximum bytes sent from the manager to any single worker.
    pub max_manager_to_worker: u64,
    /// Mean bytes sent from the manager to a worker.
    pub mean_manager_to_worker: u64,
    /// Maximum bytes between any worker pair.
    pub max_worker_pair: u64,
    /// Total bytes moved worker↔worker.
    pub total_peer: u64,
    /// Total bytes through the manager (both directions).
    pub total_manager: u64,
    /// The full matrix (manager = 0, workers 1..=W, shared FS last).
    pub matrix: TransferMatrix,
}

fn summarize(label: &'static str, m: TransferMatrix, n_workers: usize) -> HeatmapSummary {
    let mut max_m2w = 0u64;
    let mut sum_m2w = 0u64;
    let mut max_pair = 0u64;
    let mut total_peer = 0u64;
    let mut total_manager = 0u64;
    for w in 1..=n_workers {
        let b = m.get(0, w);
        max_m2w = max_m2w.max(b);
        sum_m2w += b;
        total_manager += b + m.get(w, 0);
        for v in 1..=n_workers {
            if v != w {
                max_pair = max_pair.max(m.get(w, v));
                total_peer += m.get(w, v);
            }
        }
    }
    // FS <-> manager flows also cross the manager link.
    let fs = n_workers + 1;
    total_manager += m.get(fs, 0) + m.get(0, fs);
    HeatmapSummary {
        label,
        max_manager_to_worker: max_m2w,
        mean_manager_to_worker: sum_m2w / n_workers as u64,
        max_worker_pair: max_pair,
        total_peer,
        total_manager,
        matrix: m,
    }
}

/// Run DV3-Large under Work Queue (Stack 2) and TaskVine (Stack 3) and
/// return both transfer summaries. `scale_down = 1` is paper scale.
pub fn run(seed: u64, scale_down: usize) -> (HeatmapSummary, HeatmapSummary) {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down);
    let workers = (200 / scale_down).max(2);
    let mk = |stack: usize| {
        let mut cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), seed);
        cfg.trace.transfers = true;
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        r.figures.transfers.expect("transfer trace enabled")
    };
    (
        summarize("WorkQueue", mk(2), workers),
        summarize("TaskVine", mk(3), workers),
    )
}

/// `vine-fig fig7 [scale_down]` (default 1 = paper scale). Records the
/// Work Queue and TaskVine runs: the transfer instants in their traces
/// are the raw events behind the heatmaps.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 7: transfer heatmap, DV3-Large (scale 1/{scale}) ...");
    let runs = dv3_large_stacks("fig7", scale, &[2, 3], &[2, 3]);
    fig.preflight(&runs);
    let (wq, tv) = run(42, scale);

    let header = [
        "Scheduler",
        "Max mgr->worker",
        "Mean mgr->worker",
        "Max worker pair",
        "Total peer",
        "Total via manager",
    ];
    let data: Vec<Vec<String>> = [&wq, &tv]
        .iter()
        .map(|s| {
            vec![
                s.label.to_string(),
                fmt_bytes(s.max_manager_to_worker),
                fmt_bytes(s.mean_manager_to_worker),
                fmt_bytes(s.max_worker_pair),
                fmt_bytes(s.total_peer),
                fmt_bytes(s.total_manager),
            ]
        })
        .collect();
    println!("\nFIG 7: Data transfer between node pairs\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: WQ sends upwards of 40 GB to each worker from the manager;");
    println!("       TaskVine peer transfers top out around 4 GB per node pair.");
    report::write_csv("fig7_summary.csv", &report::to_csv(&header, &data));
    println!("\nWork Queue heatmap (node 0 = manager):");
    println!("{}", plot::ascii_heatmap(&wq.matrix, 40));
    println!("TaskVine heatmap (node 0 = manager):");
    println!("{}", plot::ascii_heatmap(&tv.matrix, 40));
    report::write_csv("fig7_heatmap_wq.csv", &matrix_to_csv(&wq.matrix));
    report::write_csv("fig7_heatmap_taskvine.csv", &matrix_to_csv(&tv.matrix));
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heatmap_contrast_matches_paper() {
        let (wq, tv) = run(5, 40);
        // WQ: everything through the manager, nothing peer-to-peer.
        assert_eq!(wq.max_worker_pair, 0);
        assert!(wq.max_manager_to_worker > 0);
        // TaskVine: peer transfers dominate; manager moves (almost) nothing.
        assert!(tv.total_peer > 0);
        assert!(tv.total_manager < wq.total_manager / 10);
        // The largest single channel shrinks by an order of magnitude.
        assert!(
            tv.max_worker_pair < wq.max_manager_to_worker / 2,
            "tv pair {} vs wq m2w {}",
            tv.max_worker_pair,
            wq.max_manager_to_worker
        );
    }
}
