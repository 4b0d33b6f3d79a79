//! Fig 14a — TaskVine vs Dask.Distributed scaling on DV3-Small/Medium.
//!
//! The paper: "both TaskVine and Dask.Distributed have similar behavior at
//! small scales, however TaskVine completes execution in about 1/2 the
//! time as we approach 300 cores."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest};

use super::{EngineRun, Fig};
use crate::report;

/// One scaling point.
#[derive(Clone, Debug)]
pub struct ScalePoint {
    /// Workload name.
    pub workload: &'static str,
    /// Scheduler label.
    pub scheduler: &'static str,
    /// Total cores.
    pub cores: u32,
    /// Makespan, seconds (`None` if the run failed).
    pub makespan_s: Option<f64>,
}

/// The paper's core grid: 60–300 cores in steps of 60 (12-core workers).
pub fn core_grid() -> Vec<usize> {
    vec![5, 10, 15, 20, 25] // workers; ×12 = 60..300 cores
}

/// Run the comparison for one workload across the core grid.
pub fn run_workload(
    spec: &WorkloadSpec,
    name: &'static str,
    seed: u64,
    workers_grid: &[usize],
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for &workers in workers_grid {
        let cluster = ClusterSpec::standard(workers);
        for (label, cfg) in [
            ("TaskVine", EngineConfig::stack4(cluster, seed)),
            (
                "Dask.Distributed",
                EngineConfig::dask_distributed(cluster, seed),
            ),
        ] {
            let r = RunRequest::new(cfg, spec.to_graph()).run();
            out.push(ScalePoint {
                workload: name,
                scheduler: label,
                cores: cluster.total_cores(),
                makespan_s: r.completed().then(|| r.makespan_secs()),
            });
        }
    }
    out
}

/// Full figure: DV3-Small and DV3-Medium across 60–300 cores.
pub fn run(seed: u64, scale_down: usize) -> Vec<ScalePoint> {
    let scale_down = scale_down.max(1);
    let grid = core_grid();
    let mut out = run_workload(
        &WorkloadSpec::dv3_small().scaled_down(scale_down),
        "DV3-Small",
        seed,
        &grid,
    );
    out.extend(run_workload(
        &WorkloadSpec::dv3_medium().scaled_down(scale_down),
        "DV3-Medium",
        seed,
        &grid,
    ));
    out
}

/// The columns of the Fig 14a/14b tables.
pub const HEADER: [&str; 4] = ["Workload", "Scheduler", "Cores", "Runtime"];

/// One table row per point; `failed` stands in for a missing makespan.
pub fn table_rows(pts: &[ScalePoint], failed: &str) -> Vec<Vec<String>> {
    pts.iter()
        .map(|p| {
            vec![
                p.workload.to_string(),
                p.scheduler.to_string(),
                p.cores.to_string(),
                p.makespan_s
                    .map_or_else(|| failed.to_string(), |m| format!("{m:.0}s")),
            ]
        })
        .collect()
}

/// `vine-fig fig14a [scale_down]` (default 1 = paper scale). Records
/// both schedulers' DV3-Small runs.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 14a: TaskVine vs Dask.Distributed, DV3-Small/Medium (scale 1/{scale}) ...");
    let cluster = ClusterSpec::standard(5);
    let mut runs = Vec::new();
    for (prefix, spec, recorded) in [
        ("fig14a", WorkloadSpec::dv3_small(), true),
        ("fig14a-medium", WorkloadSpec::dv3_medium(), false),
    ] {
        let graph = spec.scaled_down(scale).to_graph();
        for (sched, cfg) in [
            ("taskvine", EngineConfig::stack4(cluster, 42)),
            ("dask", EngineConfig::dask_distributed(cluster, 42)),
        ] {
            runs.push(EngineRun {
                recorded,
                ..EngineRun::new(format!("{prefix}-{sched}"), cfg, graph.clone())
            });
        }
    }
    fig.preflight(&runs);
    let pts = run(42, scale);

    let data = table_rows(&pts, "FAILED");
    println!("\nFIG 14a: Scheduler scaling comparison\n");
    println!("{}", report::render_table(&HEADER, &data));
    // Headline ratio at max cores.
    for wl in ["DV3-Small", "DV3-Medium"] {
        let find = |sched: &str| {
            pts.iter()
                .filter(|p| p.workload == wl && p.scheduler == sched)
                .max_by_key(|p| p.cores)
                .and_then(|p| p.makespan_s)
        };
        if let (Some(tv), Some(dd)) = (find("TaskVine"), find("Dask.Distributed")) {
            println!(
                "{wl} at 300 cores: Dask/TaskVine = {:.2}x  (paper: ~2x)",
                dd / tv
            );
        }
    }
    report::write_csv("fig14a.csv", &report::to_csv(&HEADER, &data));
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taskvine_pulls_ahead_at_scale() {
        let spec = WorkloadSpec::dv3_medium().scaled_down(4);
        let pts = run_workload(&spec, "DV3-Medium", 21, &[5, 25]);
        let find = |sched: &str, cores: u32| {
            pts.iter()
                .find(|p| p.scheduler == sched && p.cores == cores)
                .and_then(|p| p.makespan_s)
                .expect("run completed")
        };
        let tv_60 = find("TaskVine", 60);
        let dd_60 = find("Dask.Distributed", 60);
        let tv_300 = find("TaskVine", 300);
        let dd_300 = find("Dask.Distributed", 300);
        // Similar at small scale (within ~2x either way)...
        assert!(dd_60 / tv_60 < 2.5, "60 cores: tv {tv_60} dd {dd_60}");
        // ...TaskVine clearly ahead at 300 cores.
        assert!(dd_300 / tv_300 > 1.3, "300 cores: tv {tv_300} dd {dd_300}");
        // And TaskVine itself scales (more cores => not slower).
        assert!(tv_300 <= tv_60 * 1.2);
    }
}
