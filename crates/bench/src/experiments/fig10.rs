//! Fig 10 — import hoisting sweep.
//!
//! The paper's setup: "a workflow containing 15,000 independent serverless
//! tasks (function calls) with and without hoisting `import numpy`,
//! comparing TaskVine local storage and the VAST shared filesystem,
//! separately. Each configuration is executed on a set of 16 32-core
//! workers. Additionally, we artificially scale the execution time of a
//! single function from roughly 0.1 seconds to about 35 seconds, which
//! corresponds linearly to a complexity range from 0.125 to 64."
//!
//! Expected shape: hoisting wins big for fine-grained (fast) functions and
//! the advantage fades as functions get longer; the local-disk library
//! slightly outperforms the shared filesystem throughout.

use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::{EngineConfig, ExecMode, ImportSource, RunRequest};
use vine_dag::{TaskGraph, TaskKind};
use vine_simcore::units::{gbit_per_sec, KB};
use vine_simcore::Dist;

use super::{EngineRun, Fig};
use crate::{obsout, report};

/// One point of the sweep.
#[derive(Clone, Debug)]
pub struct HoistPoint {
    /// Function complexity (0.125 … 64; 1.0 ≈ 0.55 s of compute).
    pub complexity: f64,
    /// Library read from worker-local disk or the shared filesystem.
    pub import_source: ImportSource,
    /// Imports hoisted into the library preamble?
    pub hoisted: bool,
    /// Workflow makespan, seconds.
    pub makespan_s: f64,
    /// Mean task execution time, seconds — the quantity hoisting changes
    /// (makespans at fine granularity are manager-dispatch-bound for every
    /// configuration alike).
    pub mean_task_s: f64,
}

/// The paper's complexity grid.
pub fn complexities() -> Vec<f64> {
    vec![0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
}

/// The paper's 16 × 32-core hoisting cluster.
pub fn hoisting_cluster() -> ClusterSpec {
    ClusterSpec {
        workers: 16,
        worker: WorkerSpec::hoisting_32core(),
        manager_link_bw: gbit_per_sec(12.0),
    }
}

/// Independent function-call workflow of `n` tasks at `complexity`.
pub fn workflow(n: usize, complexity: f64) -> TaskGraph {
    let mut g = TaskGraph::new();
    for i in 0..n {
        g.add_task(
            format!("fn{i}"),
            TaskKind::Generic,
            vec![],
            &[KB],
            complexity,
        );
    }
    g
}

/// Run the full sweep. `n_tasks = 15_000` reproduces the paper exactly;
/// smaller values keep tests quick.
pub fn run(seed: u64, n_tasks: usize) -> Vec<HoistPoint> {
    let cluster = hoisting_cluster();
    let mut out = Vec::new();
    for &complexity in &complexities() {
        for import_source in [ImportSource::WorkerLocal, ImportSource::SharedFilesystem] {
            for hoisted in [true, false] {
                let mut cfg = EngineConfig::stack4(cluster, seed);
                cfg.exec_mode = ExecMode::FunctionCalls {
                    hoist_imports: hoisted,
                };
                cfg.import_source = import_source;
                // The Fig 10 function is deterministic: 0.55 s at
                // complexity 1, scaled linearly (0.125 -> ~0.07 s,
                // 64 -> ~35 s).
                cfg.time_model.base_compute = Dist::Constant(0.55);
                let r = RunRequest::new(cfg, workflow(n_tasks, complexity)).run();
                assert!(r.completed(), "{:?}", r.outcome);
                out.push(HoistPoint {
                    complexity,
                    import_source,
                    hoisted,
                    makespan_s: r.makespan_secs(),
                    mean_task_s: r.mean_task_secs(),
                });
            }
        }
    }
    out
}

/// Task-execution-time speedup of hoisted over unhoisted at one
/// (complexity, source) point.
pub fn hoist_speedup(points: &[HoistPoint], complexity: f64, source: ImportSource) -> f64 {
    let find = |h: bool| {
        points
            .iter()
            .find(|p| p.complexity == complexity && p.import_source == source && p.hoisted == h)
            .expect("point exists")
            .mean_task_s
    };
    find(false) / find(true)
}

/// `vine-fig fig10 [n_tasks]` (default 15000 = paper scale). Records the
/// unhoisted and hoisted runs at complexity 1 with local imports: the
/// imports phase in their digest diff is exactly what hoisting saves.
pub fn main(fig: &Fig) -> Result<(), String> {
    let n = fig.num(0);
    eprintln!("Fig 10: import hoisting sweep, {n} function calls ...");
    let runs: Vec<EngineRun> = [("fig10-unhoisted", false), ("fig10-hoisted", true)]
        .into_iter()
        .map(|(label, hoist_imports)| {
            let mut cfg = EngineConfig::stack4(hoisting_cluster(), 42);
            cfg.exec_mode = ExecMode::FunctionCalls { hoist_imports };
            EngineRun::new(label, cfg, workflow(n, 1.0)).recorded()
        })
        .collect();
    fig.preflight(&runs);
    let pts = run(42, n);

    let header = [
        "Complexity",
        "Mean task (hoisted, local)",
        "Mean task (unhoisted, local)",
        "Speedup local",
        "Mean task (hoisted, shared)",
        "Mean task (unhoisted, shared)",
        "Speedup shared",
    ];
    let find = |c: f64, src: ImportSource, h: bool| {
        pts.iter()
            .find(|p| p.complexity == c && p.import_source == src && p.hoisted == h)
            .expect("point exists")
    };
    let mut data = Vec::new();
    for &c in &complexities() {
        let hl = find(c, ImportSource::WorkerLocal, true);
        let ul = find(c, ImportSource::WorkerLocal, false);
        let hs = find(c, ImportSource::SharedFilesystem, true);
        let us = find(c, ImportSource::SharedFilesystem, false);
        data.push(vec![
            format!("{c}"),
            format!("{:.3}s", hl.mean_task_s),
            format!("{:.3}s", ul.mean_task_s),
            format!("{:.2}x", ul.mean_task_s / hl.mean_task_s),
            format!("{:.3}s", hs.mean_task_s),
            format!("{:.3}s", us.mean_task_s),
            format!("{:.2}x", us.mean_task_s / hs.mean_task_s),
        ]);
    }
    println!("\nFIG 10: Import hoisting (task execution time)\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: significant speedup for short fine-grained tasks, fading for long");
    println!("       tasks; local storage slightly outperforms the shared filesystem.");
    report::write_csv("fig10.csv", &report::to_csv(&header, &data));

    // Also dump the raw makespans.
    let raw_header = [
        "complexity",
        "source",
        "hoisted",
        "makespan_s",
        "mean_task_s",
    ];
    let raw: Vec<Vec<String>> = pts
        .iter()
        .map(|p| {
            vec![
                p.complexity.to_string(),
                format!("{:?}", p.import_source),
                p.hoisted.to_string(),
                format!("{:.3}", p.makespan_s),
                format!("{:.4}", p.mean_task_s),
            ]
        })
        .collect();
    report::write_csv("fig10_raw.csv", &report::to_csv(&raw_header, &raw));
    obsout::print_digest_diff("Unhoisted -> hoisted digest diff:", &fig.record(runs));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoisting_helps_most_at_fine_granularity() {
        let pts = run(3, 1500);
        let fine = hoist_speedup(&pts, 0.125, ImportSource::WorkerLocal);
        let coarse = hoist_speedup(&pts, 64.0, ImportSource::WorkerLocal);
        assert!(fine > 1.5, "fine-grained speedup only {fine}");
        assert!(
            coarse < fine,
            "speedup should fade: fine {fine} coarse {coarse}"
        );
        assert!(coarse < 1.2, "coarse speedup should be small: {coarse}");
    }

    #[test]
    fn local_storage_beats_shared_fs_when_unhoisted() {
        let pts = run(3, 1500);
        // Unhoisted fine-grained functions re-import constantly: the
        // filesystem serving the imports matters.
        let local = pts
            .iter()
            .find(|p| {
                p.complexity == 0.25 && p.import_source == ImportSource::WorkerLocal && !p.hoisted
            })
            .unwrap()
            .mean_task_s;
        let shared = pts
            .iter()
            .find(|p| {
                p.complexity == 0.25
                    && p.import_source == ImportSource::SharedFilesystem
                    && !p.hoisted
            })
            .unwrap()
            .mean_task_s;
        assert!(local < shared, "local {local} vs shared {shared}");
    }
}
