//! Table I — overall stack performance.
//!
//! The paper's headline: the "standard" DV3 run (17 000 tasks, 1.2 TB) on
//! 200 × 12-core workers, executed on each of the four stacks:
//!
//! | Stack | Change | Runtime | Speedup |
//! |---|---|---|---|
//! | 1 | Original (WQ + HDFS) | 3545 s | 1.00× |
//! | 2 | HDFS → VAST | 3378 s | 1.05× |
//! | 3 | WQ → TaskVine | 730 s | 4.86× |
//! | 4 | Tasks → Functions | 272 s | 13.03× |

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest, RunResult};

use super::{dv3_large_stacks, Fig};
use crate::report;

/// One measured row of Table I.
#[derive(Clone, Debug)]
pub struct StackRow {
    /// Stack number (1–4).
    pub stack: usize,
    /// What changed relative to the previous stack.
    pub change: &'static str,
    /// Measured makespan in seconds.
    pub runtime_s: f64,
    /// Speedup vs Stack 1.
    pub speedup: f64,
    /// The paper's reported runtime, for side-by-side comparison.
    pub paper_runtime_s: f64,
    /// The paper's reported speedup.
    pub paper_speedup: f64,
}

/// The paper's reported numbers.
pub const PAPER: [(f64, f64); 4] = [
    (3545.0, 1.00),
    (3378.0, 1.05),
    (730.0, 4.86),
    (272.0, 13.03),
];

const CHANGES: [&str; 4] = [
    "Original",
    "HDFS -> VAST",
    "WQ -> TaskVine",
    "Tasks -> Functions",
];

/// Run one stack on a workload and return the result.
pub fn run_stack(stack: usize, spec: &WorkloadSpec, workers: usize, seed: u64) -> RunResult {
    let cluster = ClusterSpec::standard(workers);
    let cfg = EngineConfig::stack(stack, cluster, seed);
    RunRequest::new(cfg, spec.to_graph()).run()
}

/// Run all four stacks. `scale_down = 1` is the paper's full configuration
/// (17 000 tasks on 200 workers); larger values shrink both workload and
/// cluster proportionally for quick runs.
pub fn run(seed: u64, scale_down: usize) -> Vec<StackRow> {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down);
    let workers = (200 / scale_down).max(2);
    let mut rows = Vec::with_capacity(4);
    let mut base = None;
    for stack in 1..=4 {
        let r = run_stack(stack, &spec, workers, seed);
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        let runtime = r.makespan_secs();
        let base_rt = *base.get_or_insert(runtime);
        rows.push(StackRow {
            stack,
            change: CHANGES[stack - 1],
            runtime_s: runtime,
            speedup: base_rt / runtime,
            paper_runtime_s: PAPER[stack - 1].0,
            paper_speedup: PAPER[stack - 1].1,
        });
    }
    rows
}

/// `vine-fig table1 [scale_down]` (default 1 = paper scale: 17 000
/// tasks, 200 × 12-core workers; e.g. 10 runs a 1/10-size
/// configuration). Records the Stack 4 run.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Table I: DV3-Large stack evolution (scale 1/{scale}) ...");
    let runs = dv3_large_stacks("table1", scale, &[1, 2, 3, 4], &[4]);
    fig.preflight(&runs);
    let rows = run(42, scale);
    let header = [
        "Stack",
        "Change",
        "Runtime",
        "Speedup",
        "Paper Runtime",
        "Paper Speedup",
    ];
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("Stack {}", r.stack),
                r.change.to_string(),
                format!("{:.0}s", r.runtime_s),
                format!("{:.2}x", r.speedup),
                format!("{:.0}s", r.paper_runtime_s),
                format!("{:.2}x", r.paper_speedup),
            ]
        })
        .collect();
    println!("\nTABLE I: Overall Stack Performance (measured vs paper)\n");
    println!("{}", report::render_table(&header, &data));
    report::write_csv("table1.csv", &report::to_csv(&header, &data));
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shape contract at reduced scale: Stack 2 is a marginal win over
    /// Stack 1; Stack 3 is a large win; Stack 4 beats Stack 3.
    #[test]
    fn stack_ordering_holds_at_small_scale() {
        let rows = run(7, 10);
        assert_eq!(rows.len(), 4);
        let rt: Vec<f64> = rows.iter().map(|r| r.runtime_s).collect();
        assert!(rt[1] <= rt[0] * 1.05, "VAST should not slow things down");
        assert!(rt[2] < rt[1] * 0.6, "TaskVine should be a big win: {rt:?}");
        assert!(rt[3] < rt[2], "serverless should beat standard: {rt:?}");
        assert!((rows[0].speedup - 1.0).abs() < 1e-9);
        assert!(rows[3].speedup > rows[2].speedup);
    }
}
