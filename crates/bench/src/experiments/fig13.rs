//! Fig 13 — per-worker task activity (Gantt) for Stacks 3 and 4 at 20 and
//! 200 workers.
//!
//! The paper: "Stack 3 effectively keeps 20 workers busy, but is unable to
//! dispatch and collect tasks fast enough to keep 200 workers consistently
//! working. In contrast, Stack 4 is marginally faster than Stack 3 at 20
//! workers, but much more effective at keeping 200 workers busy."

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest};
use vine_simcore::trace::IntervalTrace;

use super::{EngineRun, Fig};
use crate::{plot, report};

/// One (stack, workers) cell of the figure.
#[derive(Clone, Debug)]
pub struct GanttCell {
    /// Stack number (3 or 4).
    pub stack: usize,
    /// Worker count.
    pub workers: usize,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Mean core utilization (task busy time / (makespan × total cores)).
    pub mean_utilization: f64,
    /// The raw intervals.
    pub gantt: IntervalTrace,
}

/// Run one cell.
pub fn run_cell(stack: usize, workers: usize, seed: u64, scale_down: usize) -> GanttCell {
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down.max(1));
    let mut cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), seed);
    cfg.trace.gantt = true;
    let r = RunRequest::new(cfg, spec.to_graph()).run();
    assert!(
        r.completed(),
        "stack {stack}/{workers}w failed: {:?}",
        r.outcome
    );
    let makespan = r.makespan_secs();
    let cores = ClusterSpec::standard(workers).total_cores() as f64;
    let gantt = r.figures.gantt.expect("gantt enabled");
    let busy: f64 = (0..workers).map(|w| gantt.busy_time(w).as_secs_f64()).sum();
    GanttCell {
        stack,
        workers,
        makespan_s: makespan,
        mean_utilization: busy / (makespan * cores),
        gantt,
    }
}

/// All four cells of the figure: stacks {3, 4} × workers {small, large}.
pub fn run(seed: u64, small: usize, large: usize, scale_down: usize) -> Vec<GanttCell> {
    let mut out = Vec::new();
    for stack in [3, 4] {
        for workers in [small, large] {
            out.push(run_cell(stack, workers, seed, scale_down));
        }
    }
    out
}

/// `vine-fig fig13 [small_workers] [large_workers] [scale_down]`
/// (defaults: 20, 200, 1 = paper scale). Records the Stack 4 run on the
/// wide cluster: the TASK spans in its trace are the Gantt bars, one per
/// execution.
pub fn main(fig: &Fig) -> Result<(), String> {
    let (small, large, scale) = (fig.num(0), fig.num(1), fig.num(2));
    eprintln!(
        "Fig 13: worker activity, DV3-Large, {small} vs {large} workers (scale 1/{scale}) ..."
    );
    let graph = WorkloadSpec::dv3_large().scaled_down(scale).to_graph();
    let mut runs: Vec<EngineRun> = [(3, small), (4, small), (3, large), (4, large)]
        .into_iter()
        .map(|(stack, workers)| {
            let mut cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), 42);
            cfg.trace.gantt = true;
            EngineRun::new(format!("fig13-stack{stack}-{workers}w"), cfg, graph.clone())
        })
        .collect();
    runs[3].recorded = true;
    fig.preflight(&runs);
    let cells = run(42, small, large, scale);

    let header = ["Stack", "Workers", "Cores", "Makespan", "Core utilization"];
    let data: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("Stack {}", c.stack),
                c.workers.to_string(),
                (c.workers * 12).to_string(),
                format!("{:.0}s", c.makespan_s),
                format!("{:.1}%", 100.0 * c.mean_utilization),
            ]
        })
        .collect();
    println!("\nFIG 13: Worker occupancy by stack and cluster width\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: Stack 3 keeps {small} workers busy but cannot feed {large};");
    println!("       Stack 4 is marginally faster at {small} and much better at {large}.");
    report::write_csv("fig13_summary.csv", &report::to_csv(&header, &data));

    // ASCII Gantt strips (the figure itself).
    for c in &cells {
        println!(
            "Stack {} on {} workers (shade = core occupancy per time bucket):",
            c.stack, c.workers
        );
        println!(
            "{}",
            plot::ascii_gantt(&c.gantt, c.workers, 12, c.makespan_s, 100, 20)
        );
    }

    // Gantt intervals (worker, start, end, kind) per cell.
    for c in &cells {
        let mut csv = String::from("worker,start_s,end_s,kind\n");
        for iv in c.gantt.intervals() {
            csv.push_str(&format!(
                "{},{:.3},{:.3},{}\n",
                iv.entity,
                iv.start.as_secs_f64(),
                iv.end.as_secs_f64(),
                if iv.tag == 0 { "process" } else { "accumulate" },
            ));
        }
        report::write_csv(
            &format!("fig13_gantt_stack{}_{}w.csv", c.stack, c.workers),
            &csv,
        );
    }
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack4_keeps_many_workers_busier() {
        // 1/4-scale DV3-Large on 2 vs 50 workers: with 600 cores the
        // standard-task dispatch rate (~37 ms × 4250 tasks ≈ 157 s)
        // starves workers, as in the paper's 200-worker panel.
        let cells = run(13, 2, 50, 4);
        let find = |s: usize, w: usize| {
            cells
                .iter()
                .find(|c| c.stack == s && c.workers == w)
                .unwrap()
        };
        let s3_small = find(3, 2);
        let s3_large = find(3, 50);
        let s4_large = find(4, 50);
        // Stack 3 utilizes few workers well but degrades with many.
        assert!(
            s3_large.mean_utilization < s3_small.mean_utilization,
            "s3 util small {} vs large {}",
            s3_small.mean_utilization,
            s3_large.mean_utilization
        );
        // At the large scale, Stack 4 is both better utilized and faster.
        assert!(
            s4_large.mean_utilization > s3_large.mean_utilization,
            "util s4 {} vs s3 {}; makespans s4 {} s3 {}",
            s4_large.mean_utilization,
            s3_large.mean_utilization,
            s4_large.makespan_s,
            s3_large.makespan_s
        );
        assert!(s4_large.makespan_s < s3_large.makespan_s);
    }
}
