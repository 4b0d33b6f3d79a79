//! Fig 8 — task execution time distribution: standard tasks vs
//! FunctionCalls on the DV3-Large workload.
//!
//! The paper: "A majority of tasks have execution times between 1 s and
//! 10 s (with some outliers on either side)", and serverless execution
//! shifts the whole distribution left because per-task overhead
//! (interpreter start + imports) disappears.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest};
use vine_simcore::trace::LogHistogram;

use super::{dv3_large_stacks, Fig};
use crate::{obsout, report};

/// The two measured distributions.
#[derive(Clone, Debug)]
pub struct TaskTimeDistributions {
    /// Stack 3 (standard tasks).
    pub standard: LogHistogram,
    /// Stack 4 (function calls).
    pub functions: LogHistogram,
}

/// Run both execution modes and return their task-time histograms.
pub fn run(seed: u64, scale_down: usize) -> TaskTimeDistributions {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down);
    let workers = (200 / scale_down).max(2);
    let mk = |stack: usize| {
        let cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), seed);
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
        r.figures
            .task_time_hist
            .expect("task-time trace on by default")
    };
    TaskTimeDistributions {
        standard: mk(3),
        functions: mk(4),
    }
}

/// `vine-fig fig8 [scale_down]` (default 1 = paper scale). Records the
/// Stack 3 and Stack 4 runs and prints their digest diff: where the
/// function-call speedup comes from, phase by phase.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 8: task time distribution, DV3-Large (scale 1/{scale}) ...");
    let runs = dv3_large_stacks("fig8", scale, &[3, 4], &[3, 4]);
    fig.preflight(&runs);
    let d = run(42, scale);

    let header = ["Bin lower edge (s)", "Standard tasks", "Function calls"];
    let mut data = Vec::new();
    for i in 0..d.standard.counts().len() {
        data.push(vec![
            format!("{:.3}", d.standard.bin_lo(i)),
            d.standard.counts()[i].to_string(),
            d.functions.counts()[i].to_string(),
        ]);
    }
    println!("\nFIG 8: Task execution time distribution (log2 bins)\n");
    println!("{}", report::render_table(&header, &data));
    println!(
        "In [1s, 16s): standard {:.1}%, functions {:.1}%  (paper: majority in 1-10s)",
        100.0 * d.standard.fraction_between(1.0, 16.0),
        100.0 * d.functions.fraction_between(1.0, 16.0),
    );
    println!(
        "Below 4s: standard {:.1}%, functions {:.1}%  (functions shift left)",
        100.0 * d.standard.fraction_between(0.0, 4.0),
        100.0 * d.functions.fraction_between(0.0, 4.0),
    );
    report::write_csv("fig8.csv", &report::to_csv(&header, &data));
    obsout::print_digest_diff("Stack 3 -> Stack 4 digest diff:", &fig.record(runs));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_between_one_and_ten_seconds() {
        let d = run(3, 40);
        // Function-call tasks: bulk in [1, 10)s as the paper reports.
        let frac = d.functions.fraction_between(1.0, 16.0);
        assert!(frac > 0.55, "only {frac} of function tasks in bulk");
    }

    #[test]
    fn functions_shift_distribution_left() {
        let d = run(3, 40);
        // Standard tasks carry ~2 s of interpreter/import overhead, so far
        // less of their mass sits below 4 s.
        let below_std = d.standard.fraction_between(0.0, 4.0);
        let below_fn = d.functions.fraction_between(0.0, 4.0);
        assert!(
            below_fn > below_std + 0.15,
            "below-4s: functions {below_fn} vs standard {below_std}"
        );
        // Same number of task executions measured in both runs (no
        // preemptions at this scale is not guaranteed, so allow slack).
        let (a, b) = (d.standard.total(), d.functions.total());
        assert!(a.abs_diff(b) <= a / 10, "{a} vs {b}");
    }
}
