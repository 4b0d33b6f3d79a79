//! One module per reproduced table/figure and beyond-paper experiment,
//! and the table `vine-fig` dispatches on.
//!
//! Each module has structured `run(...)` entry points (used by tests and
//! benches) and a `main(&Fig)` that prints the tables, writes the CSVs
//! under `results/`, and lists its engine runs once as [`EngineRun`]s:
//! [`Fig::preflight`] lints them all and [`Fig::record`] re-runs the
//! marked ones under `--trace-out` / `--metrics`.

use vine_analysis::WorkloadSpec;
use vine_cluster::ClusterSpec;
use vine_core::{EngineConfig, RunRequest, RunResult};
use vine_dag::TaskGraph;
use vine_obs::MemoryRecorder;

use crate::obsout::ObsCli;

pub mod ablations;
pub mod chaos;
pub mod facility;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14a;
pub mod fig14b;
pub mod fig15;
pub mod fig7;
pub mod fig8;
pub mod shards;
pub mod stream;
pub mod table1;
pub mod table2;
pub mod watch;

/// One row of the `vine-fig` table.
pub struct Experiment {
    /// The name `vine-fig` is invoked with.
    pub name: &'static str,
    /// The module under `experiments/` the row runs.
    pub module: &'static str,
    /// Positional arguments used where the command line gives none.
    pub defaults: &'static [&'static str],
    /// Prints the experiment and writes its CSVs. An `Err` is a failed
    /// acceptance gate: `vine-fig` prints it and exits 1.
    pub main: fn(&Fig) -> Result<(), String>,
}

macro_rules! row {
    ($name:literal, $module:ident, [$($default:literal),*]) => {
        Experiment {
            name: $name,
            module: stringify!($module),
            defaults: &[$($default),*],
            main: $module::main,
        }
    };
}

/// Every experiment, in the order `run_all_experiments.sh` runs them.
pub const EXPERIMENTS: &[Experiment] = &[
    row!("table1", table1, ["1"]),
    row!("table2", table2, []),
    row!("fig7", fig7, ["1"]),
    row!("fig8", fig8, ["1"]),
    row!("fig10", fig10, ["15000"]),
    row!("fig11", fig11, ["14", "1"]),
    row!("fig12", fig12, ["1"]),
    row!("fig13", fig13, ["20", "200", "1"]),
    row!("fig14a", fig14a, ["1"]),
    row!("fig14b", fig14b, ["1"]),
    row!("fig15", fig15, ["1"]),
    row!("ablations", ablations, ["10"]),
    row!("facility", facility, ["20"]),
    row!("fig-chaos", chaos, ["4"]),
    row!("fig-shards", shards, []),
    row!("fig-stream", stream, ["4"]),
    row!("fig-watch", watch, []),
];

/// The row called `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One experiment invocation: its arguments and the shared lint/record
/// driver.
pub struct Fig {
    /// `--trace-out` / `--metrics`; `obs.rest` holds the other arguments
    /// as given.
    pub obs: ObsCli,
    defaults: &'static [&'static str],
}

impl Fig {
    /// Parse `args` (everything after the experiment name) for `exp`.
    pub fn new(exp: &Experiment, args: impl Iterator<Item = String>) -> Fig {
        Fig {
            obs: ObsCli::from_args(args),
            defaults: exp.defaults,
        }
    }

    /// Positional argument `i` as a count; the row's default when it is
    /// absent or not a number.
    pub fn num(&self, i: usize) -> usize {
        let parse = |s: Option<&str>| s.and_then(|s| s.parse().ok());
        parse(self.obs.rest.get(i).map(String::as_str))
            .or_else(|| parse(self.defaults.get(i).copied()))
            .unwrap_or(0)
    }

    /// True if `--name` appears among the arguments.
    pub fn flag(&self, name: &str) -> bool {
        self.obs.rest.iter().any(|a| a == name)
    }

    /// The number following `--name`, if any.
    pub fn value(&self, name: &str) -> Option<usize> {
        let i = self.obs.rest.iter().position(|a| a == name)?;
        self.obs.rest.get(i + 1)?.parse().ok()
    }

    /// Lint every run and print its verdict to stderr. Errors do not
    /// abort: most experiments rely on the engine's own
    /// `Preflight::Enforce` gate, and figure reproductions (Fig 11's
    /// single-node reduction, Dask.Distributed at scale) run anyway so
    /// the prediction and the measured outcome can be compared.
    pub fn preflight(&self, runs: &[EngineRun]) {
        for run in runs {
            let report = vine_lint::lint_all(&run.graph, &run.cfg.lint_facts());
            let (e, w, i) = report.counts();
            if report.is_clean() {
                let tasks = run.graph.task_count();
                eprintln!("pre-flight [{}]: clean ({tasks} tasks)", run.label);
            } else {
                eprintln!(
                    "pre-flight [{}]: {e} error(s), {w} warning(s), {i} info(s)",
                    run.label
                );
                for d in report.diagnostics() {
                    eprintln!("  {d}");
                }
            }
        }
    }

    /// Under `--trace-out` / `--metrics`, re-run the marked runs with a
    /// recorder attached and export their artifacts under their labels
    /// ([`ObsCli::export`]). Returns the recorded results in order; empty
    /// (nothing runs) without those flags.
    pub fn record(&self, runs: Vec<EngineRun>) -> Vec<RunResult> {
        if !self.obs.enabled() {
            return Vec::new();
        }
        runs.into_iter()
            .filter(|run| run.recorded)
            .map(|run| {
                let mut rec = MemoryRecorder::new();
                let result = RunRequest::new(run.cfg.with_obs(), run.graph)
                    .recorder(&mut rec)
                    .run();
                self.obs.export(&run.label, &rec, &result);
                result
            })
            .collect()
    }
}

/// One engine run an experiment lints, and possibly records.
#[derive(Clone, Debug)]
pub struct EngineRun {
    /// Names the run in its lint verdict and trace files.
    pub label: String,
    /// The engine configuration.
    pub cfg: EngineConfig,
    /// The workflow.
    pub graph: TaskGraph,
    /// Re-run with a recorder attached under `--trace-out` / `--metrics`.
    pub recorded: bool,
}

impl EngineRun {
    /// A run that is linted but not recorded.
    pub fn new(label: impl Into<String>, cfg: EngineConfig, graph: TaskGraph) -> Self {
        EngineRun {
            label: label.into(),
            cfg,
            graph,
            recorded: false,
        }
    }

    /// The same run, marked for recording.
    pub fn recorded(self) -> Self {
        EngineRun {
            recorded: true,
            ..self
        }
    }
}

/// DV3-Large at `1/scale` on each of `stacks`, on the standard cluster
/// the stack experiments size as `200/scale` workers, marking the stacks
/// in `recorded`. Runs are labelled `<prefix>-stack<N>`.
fn dv3_large_stacks(
    prefix: &str,
    scale: usize,
    stacks: &[usize],
    recorded: &[usize],
) -> Vec<EngineRun> {
    let cluster = ClusterSpec::standard((200 / scale).max(2));
    let graph = WorkloadSpec::dv3_large().scaled_down(scale).to_graph();
    stacks
        .iter()
        .map(|&stack| EngineRun {
            recorded: recorded.contains(&stack),
            ..EngineRun::new(
                format!("{prefix}-stack{stack}"),
                EngineConfig::stack(stack, cluster, 42),
                graph.clone(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig(name: &str, args: &[&str]) -> Fig {
        Fig::new(
            find(name).unwrap(),
            args.iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    #[test]
    fn names_are_unique_and_every_module_has_one_row() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");

        let mut declared: Vec<&str> = include_str!("mod.rs")
            .lines()
            .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
            .collect();
        declared.sort_unstable();
        let mut rows: Vec<&str> = EXPERIMENTS.iter().map(|e| e.module).collect();
        rows.sort_unstable();
        assert_eq!(
            rows, declared,
            "every experiment module has exactly one row"
        );
    }

    #[test]
    fn arguments_fall_back_to_the_row_defaults() {
        let f = fig("fig13", &["4", "--metrics"]);
        assert!(f.obs.metrics);
        assert_eq!((f.num(0), f.num(1), f.num(2)), (4, 200, 1));
        assert_eq!(
            (
                fig("fig11", &["x", "0"]).num(0),
                fig("fig11", &["x", "0"]).num(1)
            ),
            (14, 0)
        );
        let f = fig("fig-shards", &["--gate", "--max-tenants", "1000"]);
        assert!(f.flag("--gate") && !f.flag("--metrics"));
        assert_eq!(
            (f.value("--max-tenants"), f.value("--gate")),
            (Some(1000), None)
        );
    }
}
