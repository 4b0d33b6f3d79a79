//! Fig 15 — DV3-Huge: 185 000 tasks on 600 × 12-core workers (7200 cores).
//!
//! The paper: "The generated workflow contains 185,000 tasks with 10,000
//! initial executable tasks from the start. TaskVine maintains high
//! concurrency during the duration of the execution until the reduction
//! of the graph."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest, RunResult};

use super::{EngineRun, Fig};
use crate::{plot, report};

/// The DV3-Huge run summary.
#[derive(Clone, Debug)]
pub struct HugeRun {
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Total tasks executed (incl. preemption re-runs).
    pub task_executions: u64,
    /// Peak concurrent running tasks.
    pub peak_concurrency: f64,
    /// Mean concurrency over the middle half of the run.
    pub mid_run_concurrency: f64,
    /// Full result (timeline series for the figure).
    pub result: RunResult,
}

/// Run DV3-Huge on Stack 4. `scale_down = 1` is the paper's full
/// configuration (expect a few minutes of wall-clock).
pub fn run(seed: u64, scale_down: usize) -> HugeRun {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_huge().scaled_down(scale_down);
    let workers = (600 / scale_down).max(4);
    let cfg = EngineConfig::stack4(ClusterSpec::standard(workers), seed);
    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(r.completed(), "DV3-Huge failed: {:?}", r.outcome);

    let makespan = r.makespan_secs();
    let peak = r.figures.running_series.max_value();
    // Mean over [25%, 75%] of the run.
    let samples = 40;
    let mut sum = 0.0;
    for i in 0..samples {
        let t = makespan * (0.25 + 0.5 * i as f64 / samples as f64);
        sum += r
            .figures
            .running_series
            .value_at(vine_simcore::SimTime::from_secs_f64(t));
    }
    HugeRun {
        makespan_s: makespan,
        task_executions: r.stats.task_executions,
        peak_concurrency: peak,
        mid_run_concurrency: sum / samples as f64,
        result: r,
    }
}

/// `vine-fig fig15 [scale_down]` (default 1 = paper scale; expect
/// minutes). Records the DV3-Huge run (as expensive as the run itself).
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 15: DV3-Huge on 7200 cores (scale 1/{scale}) — this is the big one ...");
    let runs = vec![EngineRun::new(
        "fig15-dv3huge",
        EngineConfig::stack4(ClusterSpec::standard((600 / scale).max(4)), 42),
        WorkloadSpec::dv3_huge().scaled_down(scale).to_graph(),
    )
    .recorded()];
    fig.preflight(&runs);
    let h = run(42, scale);
    let figures = &h.result.figures;

    println!("\nFIG 15: DV3-Huge full-scale analysis\n");
    println!("Makespan:             {:.0} s", h.makespan_s);
    println!("Task executions:      {}", h.task_executions);
    println!("Peak concurrency:     {:.0} tasks", h.peak_concurrency);
    println!(
        "Mid-run concurrency:  {:.0} tasks (mean over middle half)",
        h.mid_run_concurrency
    );
    println!("Preemptions:          {}", h.result.stats.preemptions);
    println!(
        "Peer transfer volume: {:.1} TB",
        h.result.stats.peer_bytes as f64 / 1e12
    );
    println!();
    println!("Paper: 185K tasks with 10K initially executable; TaskVine maintains");
    println!("       high concurrency until the reduction phase of the graph.");

    println!("Running tasks over the full run:");
    println!(
        "{}",
        plot::ascii_series(&figures.running_series, h.makespan_s, 110, 10)
    );

    // Timeline on a 5 s grid.
    let mut csv = String::from("time_s,running,waiting\n");
    let until = vine_simcore::SimTime::from_secs_f64(h.makespan_s);
    let dt = vine_simcore::SimDur::from_secs(5);
    for (t, r) in figures.running_series.resample(until, dt) {
        let w = figures.waiting_series.value_at(t);
        csv.push_str(&format!("{:.0},{:.0},{:.0}\n", t.as_secs_f64(), r, w));
    }
    report::write_csv("fig15_timeline.csv", &csv);
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn huge_run_sustains_concurrency_at_reduced_scale() {
        // 1/40 scale: ~4600 tasks on 15 workers (180 cores).
        let h = run(17, 40);
        assert!(h.task_executions >= 4_500);
        // Peak concurrency close to the full width.
        assert!(
            h.peak_concurrency >= 0.8 * 15.0 * 12.0,
            "peak {}",
            h.peak_concurrency
        );
        // Concurrency stays high through the middle of the run.
        assert!(
            h.mid_run_concurrency >= 0.5 * h.peak_concurrency,
            "mid {} vs peak {}",
            h.mid_run_concurrency,
            h.peak_concurrency
        );
    }
}
