//! Fig 14b — scaling DV3-Large and RS-TriPhoton from 120 to 2400 cores.
//!
//! The paper: "DV3-Large achieves peak performance at 1200 cores, while
//! RS-TriPhoton continues to see small but non-linear gains up to 2400
//! cores. (Note that Dask.Distributed is unable to execute these
//! workflows at this scale.)"

use vine_analysis::WorkloadSpec;
use vine_cluster::{ClusterSpec, WorkerSpec};
use vine_core::{EngineConfig, RunRequest};
use vine_simcore::units::gbit_per_sec;

use super::{EngineRun, Fig};
use crate::report;

pub use super::fig14a::ScalePoint;

/// The paper's large-scale worker grid (12-core workers; ×12 = cores).
pub fn worker_grid() -> Vec<usize> {
    vec![10, 25, 50, 100, 150, 200]
}

/// Run one workload across the grid on TaskVine (Stack 4).
pub fn run_workload(
    spec: &WorkloadSpec,
    name: &'static str,
    worker_spec: WorkerSpec,
    seed: u64,
    grid: &[usize],
) -> Vec<ScalePoint> {
    let mut out = Vec::new();
    for &workers in grid {
        let cluster = ClusterSpec {
            workers,
            worker: worker_spec,
            manager_link_bw: gbit_per_sec(12.0),
        };
        let cfg = EngineConfig::stack4(cluster, seed);
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        out.push(ScalePoint {
            workload: name,
            scheduler: "TaskVine",
            cores: cluster.total_cores(),
            makespan_s: r.completed().then(|| r.makespan_secs()),
        });
    }
    out
}

/// Full figure: both workloads across 120–2400 cores, plus the
/// Dask.Distributed non-result.
pub fn run(seed: u64, scale_down: usize) -> Vec<ScalePoint> {
    let scale_down = scale_down.max(1);
    let grid = worker_grid();
    let mut out = run_workload(
        &WorkloadSpec::dv3_large().scaled_down(scale_down),
        "DV3-Large",
        WorkerSpec::dv3_standard(),
        seed,
        &grid,
    );
    out.extend(run_workload(
        &WorkloadSpec::rs_triphoton().scaled_down(scale_down),
        "RS-TriPhoton",
        WorkerSpec::rs_triphoton(),
        seed,
        &grid,
    ));
    // Dask.Distributed at this scale: reported failure (paper §V-B).
    if scale_down == 1 {
        let cluster = ClusterSpec::standard(10);
        let cfg = EngineConfig::dask_distributed(cluster, seed);
        let r = RunRequest::new(cfg, WorkloadSpec::dv3_large().to_graph()).run();
        out.push(ScalePoint {
            workload: "DV3-Large",
            scheduler: "Dask.Distributed",
            cores: cluster.total_cores(),
            makespan_s: r.completed().then(|| r.makespan_secs()),
        });
    }
    out
}

/// The core count at which a workload's makespan is minimized.
pub fn best_cores(points: &[ScalePoint], workload: &str) -> Option<u32> {
    points
        .iter()
        .filter(|p| p.workload == workload && p.makespan_s.is_some())
        .min_by(|a, b| {
            a.makespan_s
                .unwrap()
                .partial_cmp(&b.makespan_s.unwrap())
                .unwrap()
        })
        .map(|p| p.cores)
}

/// `vine-fig fig14b [scale_down]` (default 1 = paper scale). Records the
/// DV3-Large run.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 14b: large-scale scaling (scale 1/{scale}) ...");
    let cfg = EngineConfig::stack4(ClusterSpec::standard((200 / scale).max(2)), 42);
    let mut runs = vec![
        EngineRun::new(
            "fig14b-dv3large",
            cfg.clone(),
            WorkloadSpec::dv3_large().scaled_down(scale).to_graph(),
        )
        .recorded(),
        EngineRun::new(
            "fig14b-rs-triphoton",
            cfg,
            WorkloadSpec::rs_triphoton().scaled_down(scale).to_graph(),
        ),
    ];
    // The Dask.Distributed non-result: the C005 lint predicts the paper's
    // reported failure before the engine refuses to run it.
    if scale == 1 {
        runs.push(EngineRun::new(
            "fig14b-dv3large-dask",
            EngineConfig::dask_distributed(ClusterSpec::standard(10), 42),
            WorkloadSpec::dv3_large().to_graph(),
        ));
    }
    fig.preflight(&runs);
    let pts = run(42, scale);

    let data = super::fig14a::table_rows(&pts, "FAILED (crashes/hangs)");
    println!("\nFIG 14b: Scaling of standard configurations\n");
    println!("{}", report::render_table(&super::fig14a::HEADER, &data));
    for wl in ["DV3-Large", "RS-TriPhoton"] {
        if let Some(best) = best_cores(&pts, wl) {
            println!("{wl}: best makespan at {best} cores");
        }
    }
    println!("Paper: DV3-Large peaks at 1200 cores; RS-TriPhoton keeps gaining to 2400;");
    println!("       Dask.Distributed cannot execute these workflows at this scale.");
    report::write_csv("fig14b.csv", &report::to_csv(&super::fig14a::HEADER, &data));
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dv3_large_plateaus_before_max_cores() {
        // 1/10 scale: 1700 tasks. The dispatch-rate ceiling that causes
        // the paper's 1200-core plateau scales with task count, so the
        // plateau appears at proportionally fewer cores.
        let pts = run_workload(
            &WorkloadSpec::dv3_large().scaled_down(10),
            "DV3-Large",
            WorkerSpec::dv3_standard(),
            31,
            &[5, 10, 20, 40, 80],
        );
        let times: Vec<f64> = pts.iter().map(|p| p.makespan_s.unwrap()).collect();
        // More cores help at first...
        assert!(times[1] < times[0] * 0.95, "{times:?}");
        // ...but the largest step shows clearly diminished returns: the
        // final doubling of cores buys well under half the speedup of
        // the first, and under 15% outright.
        let last_gain = times[3] / times[4];
        let first_gain = times[0] / times[1];
        assert!(
            last_gain < 1.15 && (last_gain - 1.0) < (first_gain - 1.0) * 0.5,
            "no plateau: first {first_gain}, last {last_gain} ({times:?})"
        );
    }

    #[test]
    fn rs_triphoton_keeps_gaining() {
        let pts = run_workload(
            &WorkloadSpec::rs_triphoton().scaled_down(10),
            "RS-TriPhoton",
            WorkerSpec::rs_triphoton(),
            31,
            &[5, 10, 20],
        );
        let times: Vec<f64> = pts.iter().map(|p| p.makespan_s.unwrap()).collect();
        assert!(times[1] < times[0], "{times:?}");
        assert!(times[2] < times[1], "{times:?}");
    }
}
