//! Shared `--trace-out` / `--metrics` plumbing for `vine-fig` and
//! `vine-sim`.
//!
//! Both strip the observability flags with [`ObsCli::from_args`] and,
//! when they are present, record runs with a [`MemoryRecorder`] attached
//! (`vine-fig` records each experiment's marked runs) and write the
//! artifacts with [`ObsCli::export`] under the trace directory —
//!
//! * `<label>.trace.json` — Chrome `trace_event` JSON (open in Perfetto
//!   or `chrome://tracing`),
//! * `<label>.spans.csv` / `<label>.counters.csv` — the same events as CSV,
//! * `<label>.attrib.csv` — per-task phase attribution rows,
//! * `<label>.digest.txt` — the run digest (phases, critical path,
//!   counters),
//! * `<label>.metrics.txt` — the metrics-registry export (with
//!   `--metrics`; printed to stdout when no trace dir is given).

use std::path::{Path, PathBuf};

use vine_core::RunResult;
use vine_obs::{chrome, csv, MemoryRecorder, MetricsRegistry};

/// Observability flags shared by `vine-fig` and `vine-sim`, plus the untouched
/// remainder of the command line.
#[derive(Clone, Debug, Default)]
pub struct ObsCli {
    /// Directory for trace artifacts (`--trace-out DIR`), created on
    /// demand.
    pub trace_dir: Option<PathBuf>,
    /// Also export the metrics registry (`--metrics`).
    pub metrics: bool,
    /// Arguments that were not observability flags, in order.
    pub rest: Vec<String>,
}

impl ObsCli {
    /// Strip `--trace-out DIR` and `--metrics` from `args`. Exits with a
    /// usage error if `--trace-out` lacks a value.
    pub fn from_args(args: impl Iterator<Item = String>) -> ObsCli {
        let mut cli = ObsCli::default();
        let mut it = args;
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace-out" => match it.next() {
                    Some(dir) => cli.trace_dir = Some(PathBuf::from(dir)),
                    None => {
                        eprintln!("--trace-out requires a directory");
                        std::process::exit(2);
                    }
                },
                "--metrics" => cli.metrics = true,
                _ => cli.rest.push(a),
            }
        }
        cli
    }

    /// True when any observability output was requested.
    pub fn enabled(&self) -> bool {
        self.trace_dir.is_some() || self.metrics
    }

    /// Write the artifacts for an already-recorded run.
    pub fn export(&self, label: &str, rec: &MemoryRecorder, result: &RunResult) {
        if let Some(dir) = &self.trace_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return;
            }
            write_file(dir, label, "trace.json", &chrome::to_chrome_json(rec));
            write_file(dir, label, "spans.csv", &csv::spans_to_csv(rec));
            write_file(dir, label, "counters.csv", &csv::counters_to_csv(rec));
            if let Some(obs) = &result.obs {
                write_file(
                    dir,
                    label,
                    "attrib.csv",
                    &vine_obs::attrib::attributions_to_csv(&obs.attributions),
                );
                write_file(dir, label, "digest.txt", &obs.digest.to_text());
            }
        }
        if self.metrics {
            let text = run_metrics(result).to_text();
            match &self.trace_dir {
                Some(dir) => write_file(dir, label, "metrics.txt", &text),
                None => print!("{text}"),
            }
        }
    }
}

/// Print `title` and the digest diff from the first to the second of two
/// recorded runs: which phases a configuration change moved. Prints
/// nothing unless both runs carry obs digests.
pub fn print_digest_diff(title: &str, runs: &[RunResult]) {
    if let [a, b] = runs {
        if let (Some(oa), Some(ob)) = (&a.obs, &b.obs) {
            println!("\n{title}");
            print!("{}", oa.digest.diff(&ob.digest).to_text());
        }
    }
}

/// Fold a run's aggregate numbers into a metrics registry (deterministic
/// text export).
pub fn run_metrics(result: &RunResult) -> MetricsRegistry {
    let mut m = MetricsRegistry::new();
    let s = &result.stats;
    m.counter_add("tasks.total", s.tasks_total as u64);
    m.counter_add("tasks.executions", s.task_executions);
    m.counter_add("workers.preemptions", s.preemptions);
    m.counter_add("workers.cache_overflows", s.cache_overflow_failures);
    m.counter_add("net.flows_completed", s.flows_completed);
    m.counter_add("net.manager_bytes", s.manager_bytes);
    m.counter_add("net.peer_bytes", s.peer_bytes);
    m.counter_add("net.shared_fs_bytes", s.shared_fs_bytes);
    m.counter_add("serverless.libraries_started", s.libraries_started);
    m.gauge_set("run.makespan_s", result.makespan_secs());
    m.gauge_set("run.mean_task_s", result.mean_task_secs());
    m.gauge_set("run.completed", if result.completed() { 1.0 } else { 0.0 });
    if let Some(obs) = &result.obs {
        m.gauge_set(
            "run.critical_path_s",
            obs.digest.critical_path_us as f64 / 1e6,
        );
        // Same binning the engine's Fig 8 histogram uses.
        for a in &obs.attributions {
            m.histogram_record("task.wall_s", 0.0625, 16, a.wall_us() as f64 / 1e6);
        }
    }
    m
}

fn write_file(dir: &Path, label: &str, suffix: &str, content: &str) {
    let path = dir.join(format!("{label}.{suffix}"));
    match std::fs::write(&path, content) {
        Ok(()) => eprintln!("[wrote {}]", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> std::vec::IntoIter<String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parse_strips_obs_flags_and_keeps_the_rest() {
        let cli = ObsCli::from_args(args(&["10", "--trace-out", "/tmp/t", "--metrics", "x"]));
        assert_eq!(cli.trace_dir.as_deref(), Some(Path::new("/tmp/t")));
        assert!(cli.metrics);
        assert_eq!(cli.rest, vec!["10".to_string(), "x".to_string()]);
        assert!(cli.enabled());
    }

    #[test]
    fn defaults_are_off() {
        let cli = ObsCli::from_args(args(&["3"]));
        assert!(!cli.enabled());
        assert_eq!(cli.rest, ["3"]);
    }

    #[test]
    fn metrics_registry_round_trips() {
        use vine_core::{EngineConfig, RunRequest};
        let cluster = vine_cluster::ClusterSpec::standard(2);
        let cfg = EngineConfig::stack(4, cluster, 7)
            .deterministic()
            .with_obs();
        let spec = vine_analysis::WorkloadSpec::dv3_small().scaled_down(50);
        let r = RunRequest::new(cfg, spec.to_graph()).run();
        let m = run_metrics(&r);
        assert_eq!(m.counter("tasks.executions"), Some(r.stats.task_executions));
        let parsed = MetricsRegistry::parse_text(&m.to_text()).unwrap();
        assert_eq!(parsed.to_text(), m.to_text());
    }
}
