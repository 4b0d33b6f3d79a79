//! Engine-facing CLI plumbing for `vine-sim`. [`BenchCli`] is the one
//! place the whole flag family lives:
//!
//! * `--trace-out DIR` / `--metrics` — observability export (delegated
//!   to [`ObsCli`]);
//! * `--chaos PRESET|SPEC` — a deterministic fault plan
//!   ([`FaultPlan::parse`]);
//! * `--recovery default|hardened|fragile` — the engine recovery
//!   policy;
//! * `--bench-json FILE` — machine-readable run summary for CI gates;
//! * `--stream-threshold T` — attach a
//!   [`vine_analysis::ConvergenceObserver`] with threshold `T` ∈ (0, 1]
//!   and let the run stop early at convergence.
//!
//! `vine-sim` calls [`BenchCli::parse`], uses [`BenchCli::apply`] to fold
//! the chaos/recovery choices into an [`EngineConfig`], and parses its
//! own flags from [`BenchCli::rest`].

use vine_core::{EngineConfig, FaultPlan, RecoveryPolicy, RunResult};

use crate::obsout::ObsCli;

/// The shared engine-facing flags, stripped from the command line, plus
/// the untouched remainder.
#[derive(Clone, Debug, Default)]
pub struct BenchCli {
    /// `--trace-out` / `--metrics`.
    pub obs: ObsCli,
    /// Parsed `--chaos` plan, if given.
    pub chaos: Option<FaultPlan>,
    /// `--recovery` policy (default policy when the flag is absent).
    pub recovery: RecoveryPolicy,
    /// The `--recovery` name as given (`"default"` when absent).
    pub recovery_name: String,
    /// `--bench-json FILE`.
    pub bench_json: Option<String>,
    /// `--stream-threshold T`, validated to (0, 1].
    pub stream_threshold: Option<f64>,
    /// Arguments that were none of the above, in order.
    pub rest: Vec<String>,
}

impl BenchCli {
    /// Strip the shared flags from the process arguments. Exits with a
    /// usage error (status 2) on a malformed value, like the binaries
    /// always did.
    pub fn parse() -> BenchCli {
        match Self::from_args(std::env::args().skip(1)) {
            Ok(cli) => cli,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        }
    }

    /// Same, from an explicit argument list (tests).
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<BenchCli, String> {
        let mut obs = ObsCli::from_args(args);
        let mut it = std::mem::take(&mut obs.rest).into_iter();
        let mut cli = BenchCli {
            obs,
            recovery_name: "default".into(),
            ..BenchCli::default()
        };
        while let Some(a) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
            match a.as_str() {
                "--chaos" => {
                    let spec = value("--chaos")?;
                    cli.chaos = Some(FaultPlan::parse(&spec).map_err(|e| format!("--chaos: {e}"))?);
                }
                "--recovery" => {
                    let name = value("--recovery")?;
                    cli.recovery = match name.as_str() {
                        "default" => RecoveryPolicy::default(),
                        "hardened" => RecoveryPolicy::hardened(),
                        "fragile" => RecoveryPolicy::fragile(),
                        other => {
                            return Err(format!(
                                "unknown recovery policy {other} (default|hardened|fragile)"
                            ))
                        }
                    };
                    cli.recovery_name = name;
                }
                "--bench-json" => cli.bench_json = Some(value("--bench-json")?),
                "--stream-threshold" => {
                    let t: f64 = value("--stream-threshold")?
                        .parse()
                        .map_err(|e| format!("--stream-threshold: {e}"))?;
                    if !(t > 0.0 && t <= 1.0) {
                        return Err(format!("--stream-threshold must be in (0, 1], got {t}"));
                    }
                    cli.stream_threshold = Some(t);
                }
                _ => cli.rest.push(a),
            }
        }
        Ok(cli)
    }

    /// Fold the chaos plan and recovery policy into `cfg`.
    pub fn apply(&self, mut cfg: EngineConfig) -> EngineConfig {
        if let Some(plan) = &self.chaos {
            cfg = cfg.with_chaos(plan.clone());
        }
        cfg.with_recovery(self.recovery)
    }

    /// Write the `--bench-json` summary for a finished run, if the flag
    /// was given.
    ///
    /// `wall` is the host wall-clock of the whole invocation (graph
    /// build + simulate + report); `sim_wall` is the wall-clock of the
    /// simulation proper (`RunRequest::run`), which is what the CI
    /// throughput gate tracks as `sim_wall_ms` /
    /// `sim_events_per_wall_sec`. `makespan_s` is simulated time and
    /// deterministic for a fixed workload and seed, which is what the
    /// behavioral regression gate needs.
    pub fn write_bench_json(
        &self,
        workload: &str,
        seed: u64,
        r: &RunResult,
        wall: std::time::Duration,
        sim_wall: std::time::Duration,
    ) {
        let Some(path) = &self.bench_json else { return };
        let makespan_s = r.makespan_secs();
        let events = r.stats.events_processed;
        let per_sec = |secs: f64| {
            if secs > 0.0 {
                events as f64 / secs
            } else {
                0.0
            }
        };
        let events_per_sec = per_sec(wall.as_secs_f64());
        let sim_wall_ms = sim_wall.as_secs_f64() * 1e3;
        let sim_events_per_wall_sec = per_sec(sim_wall.as_secs_f64());
        let json = format!(
            "{{\n  \"workload\": \"{workload}\",\n  \"seed\": {seed},\n  \
             \"makespan_s\": {makespan_s:.6},\n  \"events\": {events},\n  \
             \"events_per_sec\": {events_per_sec:.3},\n  \
             \"sim_wall_ms\": {sim_wall_ms:.3},\n  \
             \"sim_events_per_wall_sec\": {sim_events_per_wall_sec:.3},\n  \
             \"peak_cache_bytes\": {}\n}}\n",
            r.stats.peak_cache_bytes
        );
        match std::fs::write(path, json) {
            Ok(()) => println!("[wrote {path}]"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> std::vec::IntoIter<String> {
        a.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn strips_shared_flags_and_keeps_rest() {
        let cli = BenchCli::from_args(args(&[
            "--workload",
            "dv3-small",
            "--chaos",
            "storm",
            "--recovery",
            "hardened",
            "--bench-json",
            "out.json",
            "--stream-threshold",
            "0.5",
            "--metrics",
            "--stack",
            "3",
        ]))
        .unwrap();
        assert!(cli.chaos.is_some());
        assert_eq!(cli.recovery_name, "hardened");
        assert_eq!(cli.bench_json.as_deref(), Some("out.json"));
        assert_eq!(cli.stream_threshold, Some(0.5));
        assert!(cli.obs.metrics);
        assert_eq!(cli.rest, ["--workload", "dv3-small", "--stack", "3"]);
    }

    #[test]
    fn rejects_bad_values() {
        assert!(BenchCli::from_args(args(&["--recovery", "bogus"])).is_err());
        assert!(BenchCli::from_args(args(&["--stream-threshold", "0"])).is_err());
        assert!(BenchCli::from_args(args(&["--stream-threshold", "1.5"])).is_err());
        assert!(BenchCli::from_args(args(&["--chaos"])).is_err());
    }

    #[test]
    fn defaults_are_inert() {
        let cli = BenchCli::from_args(args(&["positional"])).unwrap();
        assert!(cli.chaos.is_none());
        assert_eq!(cli.recovery_name, "default");
        assert!(cli.stream_threshold.is_none());
        assert_eq!(cli.rest, ["positional"]);
    }
}
