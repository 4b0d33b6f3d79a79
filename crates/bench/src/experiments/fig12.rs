//! Fig 12 — workflow execution timeline for each stack (first 300 s).
//!
//! Top panel: concurrently executing tasks; bottom panel: tasks waiting
//! to be scheduled. The paper's observations: Stack 1 sustains high
//! initial concurrency (long tasks) but has a very long accumulation
//! tail; Stack 3 oscillates because "dispatched tasks complete faster
//! than the next round can be dispatched"; Stack 4 dispatches fast enough
//! to stay busy.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest};
use vine_simcore::trace::TimeSeries;
use vine_simcore::{SimDur, SimTime};

use super::{dv3_large_stacks, Fig};
use crate::{plot, report};

/// Timeline of one stack.
#[derive(Clone, Debug)]
pub struct StackTimeline {
    /// Stack number (1–4).
    pub stack: usize,
    /// Total makespan, seconds.
    pub makespan_s: f64,
    /// Running-task counter over time.
    pub running: TimeSeries,
    /// Waiting (ready, undispatched) counter over time.
    pub waiting: TimeSeries,
}

impl StackTimeline {
    /// Sample both series on a regular grid over the first `horizon_s`
    /// seconds: `(t, running, waiting)` triples.
    pub fn sampled(&self, horizon_s: u64, step_s: u64) -> Vec<(f64, f64, f64)> {
        let until = SimTime::from_secs(horizon_s);
        let dt = SimDur::from_secs(step_s.max(1));
        self.running
            .resample(until, dt)
            .into_iter()
            .map(|(t, r)| (t.as_secs_f64(), r, self.waiting.value_at(t)))
            .collect()
    }
}

/// Run all four stacks on DV3-Large and capture their timelines.
pub fn run(seed: u64, scale_down: usize) -> Vec<StackTimeline> {
    let scale_down = scale_down.max(1);
    let spec = WorkloadSpec::dv3_large().scaled_down(scale_down);
    let workers = (200 / scale_down).max(2);
    (1..=4)
        .map(|stack| {
            let cfg = EngineConfig::stack(stack, ClusterSpec::standard(workers), seed);
            let r = RunRequest::new(cfg, spec.to_graph()).run();
            assert!(r.completed(), "stack {stack} failed: {:?}", r.outcome);
            StackTimeline {
                stack,
                makespan_s: r.makespan_secs(),
                running: r.figures.running_series,
                waiting: r.figures.waiting_series,
            }
        })
        .collect()
}

/// `vine-fig fig12 [scale_down]` (default 1 = paper scale). Records
/// every stack's run.
pub fn main(fig: &Fig) -> Result<(), String> {
    let scale = fig.num(0).max(1);
    eprintln!("Fig 12: stack timelines, DV3-Large (scale 1/{scale}) ...");
    let runs = dv3_large_stacks("fig12", scale, &[1, 2, 3, 4], &[1, 2, 3, 4]);
    fig.preflight(&runs);
    let timelines = run(42, scale);

    // Console summary: concurrency snapshots.
    let header = [
        "Stack",
        "Makespan",
        "Running@30s",
        "Running@150s",
        "Running@300s",
        "Waiting@30s",
        "Waiting@300s",
    ];
    let data: Vec<Vec<String>> = timelines
        .iter()
        .map(|t| {
            let running = |s: u64| t.running.value_at(SimTime::from_secs(s));
            let waiting = |s: u64| t.waiting.value_at(SimTime::from_secs(s));
            vec![
                format!("Stack {}", t.stack),
                format!("{:.0}s", t.makespan_s),
                format!("{:.0}", running(30)),
                format!("{:.0}", running(150)),
                format!("{:.0}", running(300)),
                format!("{:.0}", waiting(30)),
                format!("{:.0}", waiting(300)),
            ]
        })
        .collect();
    println!("\nFIG 12: First-300s timeline summary\n");
    println!("{}", report::render_table(&header, &data));
    println!("Paper: Stack 1 sustains early concurrency but has a long tail; Stack 3");
    println!("       oscillates (dispatch cannot keep up); Stack 4 stays busy and");
    println!("       finishes within ~272s.");

    // ASCII rendering of the running-task timelines (the figure's top
    // panel), over the first 300 s.
    for t in &timelines {
        println!("Stack {} running tasks (first 300s):", t.stack);
        println!("{}", plot::ascii_series(&t.running, 300.0, 100, 8));
    }

    // Full series on a 1 s grid for plotting.
    let mut csv = String::from("stack,time_s,running,waiting\n");
    for t in &timelines {
        for (time, r, w) in t.sampled(300, 1) {
            csv.push_str(&format!("{},{:.0},{:.0},{:.0}\n", t.stack, time, r, w));
        }
    }
    report::write_csv("fig12_timeline.csv", &csv);
    fig.record(runs);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack4_sustains_higher_mid_run_concurrency() {
        let tl = run(9, 40);
        assert_eq!(tl.len(), 4);
        // At 1/40 scale the runs are tens of seconds; compare the mean
        // running concurrency over each run's own first half.
        let mean_conc = |t: &StackTimeline| {
            let horizon = (t.makespan_s / 2.0) as u64;
            let samples = t.sampled(horizon.max(2), 1);
            samples.iter().map(|&(_, r, _)| r).sum::<f64>() / samples.len() as f64
        };
        let c3 = mean_conc(&tl[2]);
        let c4 = mean_conc(&tl[3]);
        // Stack 4 keeps workers busier than stack 3 within its window.
        assert!(c4 > c3 * 0.8, "stack4 {c4} vs stack3 {c3}");
        // Everyone drains the waiting queue by the end.
        for t in &tl {
            assert_eq!(
                t.waiting.last().map(|(_, v)| v),
                Some(0.0),
                "stack {}",
                t.stack
            );
        }
    }

    #[test]
    fn waiting_queue_starts_full() {
        let tl = run(9, 40);
        // At t≈0 every process task is ready and waiting.
        for t in &tl {
            assert!(
                t.waiting.max_value() >= 300.0,
                "stack {}: waiting peak {}",
                t.stack,
                t.waiting.max_value()
            );
        }
    }
}
