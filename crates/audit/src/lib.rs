#![deny(unsafe_code)]

//! # vine-audit — source-level determinism & concurrency auditor
//!
//! Every headline result in this repo rests on one invariant: same seed,
//! bit-identical run. `vine-lint` proves properties of the *workflow*
//! before it runs; this crate proves properties of *our own code*, where
//! one stray `HashMap` iteration feeding a digest or one `Instant::now()`
//! in the sim path silently breaks replay. It is implemented with a
//! hand-rolled lexer ([`lexer`]) — no compiler frontend, no third-party
//! crates — so the hermetic offline build can always run it.
//!
//! Three code families, in the house style of `vine-lint`'s G/R/C/D/F
//! codes:
//!
//! * **A1xx determinism** — unordered-map types in deterministic code,
//!   ambient RNG, wall clocks reachable from simulated paths, ambient
//!   hasher state, non-associative float accumulation in digest code;
//! * **A2xx concurrency** — thread spawns, `Relaxed` atomics, and lock
//!   types outside `vine-exec`'s documented real-execution boundary;
//! * **A3xx hygiene/architecture** — `unwrap`/`expect` in engine hot
//!   paths, a module-size ratchet, cross-crate layering violations, and
//!   malformed or unused waivers.
//!
//! Findings can be **waived** inline with a reason:
//!
//! ```text
//! // vine-audit: allow(A101) -- membership probe only; order unused
//! // vine-audit: allow-file(A103) -- this module IS the wall-clock boundary
//! ```
//!
//! and **grandfathered** by a committed baseline
//! (`results/audit_baseline.txt`): per-(code, file) finding counts that
//! may only ratchet down, plus per-file line counts that cap module
//! growth. The `vine-audit` binary wires this into CI with `--deny`.

pub mod baseline;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

pub use baseline::{Baseline, GateOutcome};

/// How bad a finding is. Mirrors `vine-lint::Severity`; restated here so
/// the auditor keeps its zero-dependency footing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth knowing; never gates.
    Info,
    /// Suspicious; gated only through the baseline ratchet.
    Warn,
    /// Breaks a stated invariant; gated through the baseline ratchet.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warn => write!(f, "warn"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable audit codes. The code, not the message, is the contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Code {
    /// `HashMap`/`HashSet` in deterministic (non-exec) code: iteration
    /// order is ambient state that can escape into digests and exports.
    A101,
    /// Ambient or unseeded RNG (`thread_rng`, `from_entropy`,
    /// `rand::random`): replay cannot reproduce the draw stream.
    A102,
    /// Wall clock (`Instant::now`/`SystemTime::now`) outside the real
    /// execution boundary: simulated time must come from the sim clock.
    A103,
    /// Non-associative float accumulation (`sum::<f64>()`, `fold(0.0`)
    /// in histogram/digest/metrics code: result depends on fold order.
    A104,
    /// Ambient hasher state (`RandomState`, `DefaultHasher`): per-process
    /// seeds leak into anything derived from the hashes.
    A105,
    /// Thread spawn outside `vine-exec`'s documented boundary.
    A201,
    /// `Ordering::Relaxed` atomics outside `vine-exec`.
    A202,
    /// Lock types (`Mutex`/`RwLock`/`Condvar`) outside `vine-exec`:
    /// acquisition order is unobservable to the deterministic replay.
    A203,
    /// `unwrap()`/`expect()` in engine hot paths (`vine-core`,
    /// `vine-simcore`): a poisoned invariant aborts the whole facility.
    A301,
    /// Module exceeds the size threshold; growth past the recorded
    /// baseline fails the build (the `engine.rs` ratchet).
    A302,
    /// Cross-crate layering violation: a crate references a `vine-*`
    /// crate its documented architecture layer may not depend on.
    A303,
    /// Malformed waiver (missing `-- reason`) or a waiver that suppresses
    /// nothing: waiver debt must stay honest.
    A304,
}

impl Code {
    /// Every code, in report order — drives the README reference table.
    pub const ALL: [Code; 12] = [
        Code::A101,
        Code::A102,
        Code::A103,
        Code::A104,
        Code::A105,
        Code::A201,
        Code::A202,
        Code::A203,
        Code::A301,
        Code::A302,
        Code::A303,
        Code::A304,
    ];

    /// One-line description (the README reference text).
    pub fn describe(self) -> &'static str {
        match self {
            Code::A101 => "HashMap/HashSet in deterministic code (iteration order can escape)",
            Code::A102 => "ambient or unseeded RNG (thread_rng / from_entropy / rand::random)",
            Code::A103 => "wall clock (Instant/SystemTime::now) outside the execution boundary",
            Code::A104 => "non-associative float accumulation in digest/histogram code",
            Code::A105 => "ambient hasher state (RandomState / DefaultHasher)",
            Code::A201 => "thread spawn outside the vine-exec boundary",
            Code::A202 => "Relaxed atomic ordering outside the vine-exec boundary",
            Code::A203 => "lock types (Mutex/RwLock/Condvar) outside the vine-exec boundary",
            Code::A301 => "unwrap()/expect() in engine hot paths",
            Code::A302 => "module exceeds the size threshold (growth ratchets against baseline)",
            Code::A303 => "cross-crate layering violation",
            Code::A304 => "malformed waiver (no reason) or waiver that suppresses nothing",
        }
    }

    /// Default severity for a finding of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::A101 | Code::A102 | Code::A103 | Code::A105 => Severity::Error,
            Code::A201 | Code::A202 | Code::A203 | Code::A303 => Severity::Error,
            Code::A104 | Code::A301 | Code::A302 | Code::A304 => Severity::Warn,
        }
    }

    /// Parse `"A101"` → `Code::A101`.
    pub fn parse(s: &str) -> Option<Code> {
        Code::ALL.iter().copied().find(|c| c.to_string() == s)
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// One finding, pointing at a file line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable code.
    pub code: Code,
    /// Severity (usually `code.severity()`).
    pub severity: Severity,
    /// Repo-relative path, `/`-separated.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// What is wrong, with the tokens that show it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}:{}: {}",
            self.severity, self.code, self.path, self.line, self.message
        )
    }
}

/// Sort key shared by report rendering and the baseline: path, then
/// line, then code, then message — fully deterministic.
fn finding_key(f: &Finding) -> (String, u32, Code, String) {
    (f.path.clone(), f.line, f.code, f.message.clone())
}

/// The result of auditing a set of files.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Active findings (not waived), sorted.
    pub findings: Vec<Finding>,
    /// Waived findings, sorted — kept for accounting and `--all` output.
    pub waived: Vec<Finding>,
    /// Per-file line counts of every scanned file (for the ratchet).
    pub file_lines: BTreeMap<String, u32>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl AuditReport {
    /// Merge another file's results in.
    fn absorb(&mut self, mut other: rules::FileAudit) {
        self.findings.append(&mut other.findings);
        self.waived.append(&mut other.waived);
        self.file_lines.insert(other.path, other.lines);
        self.files_scanned += 1;
    }

    /// Canonical ordering, applied once after all files are absorbed.
    fn sort(&mut self) {
        self.findings.sort_by_key(finding_key);
        self.waived.sort_by_key(finding_key);
    }

    /// Per-(code, path) counts of active findings — the baseline currency.
    pub fn counts(&self) -> BTreeMap<(Code, String), u32> {
        let mut m = BTreeMap::new();
        for f in &self.findings {
            *m.entry((f.code, f.path.clone())).or_insert(0) += 1;
        }
        m
    }

    /// Deterministic human-readable text: one line per finding, sorted,
    /// then a summary. `show_waived` appends the waived list.
    pub fn to_text(&self, show_waived: bool) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!("{f}\n"));
        }
        if show_waived {
            for f in &self.waived {
                out.push_str(&format!("waived {f}\n"));
            }
        }
        let (e, w) = self
            .findings
            .iter()
            .fold((0usize, 0usize), |(e, w), f| match f.severity {
                Severity::Error => (e + 1, w),
                Severity::Warn | Severity::Info => (e, w + 1),
            });
        out.push_str(&format!(
            "audit: {} finding(s) ({e} error(s), {w} warning(s)), {} waived, {} file(s) scanned\n",
            self.findings.len(),
            self.waived.len(),
            self.files_scanned
        ));
        out
    }
}

/// What the rules need to know about the workspace architecture. The
/// default is this repository's documented layout; tests perturb it.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Files larger than this many lines trigger [`Code::A302`].
    pub module_lines_threshold: u32,
    /// Crates whose non-test code may not call `unwrap`/`expect`
    /// ([`Code::A301`]): the engine hot paths.
    pub hot_path_crates: Vec<String>,
    /// Crates forming the documented real-execution boundary: threads,
    /// atomics, locks, and wall clocks are legitimate here (A103/A2xx
    /// exempt).
    pub exec_boundary_crates: Vec<String>,
    /// Path fragments scoping [`Code::A104`] to digest/histogram code.
    pub float_scope: Vec<String>,
    /// Allowed `vine-*` dependencies per crate (the architecture DAG,
    /// mirroring each crate's `[dependencies]`). Key and values are the
    /// short crate names (`core`, not `vine-core`).
    pub layering: BTreeMap<String, Vec<String>>,
}

impl Default for AuditConfig {
    fn default() -> Self {
        let dep = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        let mut layering = BTreeMap::new();
        layering.insert("simcore".into(), dep(&[]));
        layering.insert("dag".into(), dep(&[]));
        layering.insert("data".into(), dep(&[]));
        layering.insert("audit".into(), dep(&[]));
        layering.insert("storage".into(), dep(&["simcore"]));
        layering.insert("net".into(), dep(&["simcore"]));
        layering.insert("store".into(), dep(&["simcore", "storage", "net", "obs"]));
        layering.insert("cluster".into(), dep(&["simcore"]));
        layering.insert("chaos".into(), dep(&["simcore"]));
        layering.insert("lint".into(), dep(&["dag"]));
        layering.insert("obs".into(), dep(&["simcore", "dag"]));
        layering.insert(
            "core".into(),
            dep(&[
                "simcore", "storage", "net", "cluster", "chaos", "dag", "lint", "obs", "data",
            ]),
        );
        layering.insert("analysis".into(), dep(&["data", "dag", "core", "simcore"]));
        layering.insert(
            "exec".into(),
            dep(&["dag", "lint", "obs", "data", "analysis"]),
        );
        layering.insert(
            "serve".into(),
            dep(&[
                "simcore", "storage", "store", "cluster", "dag", "lint", "obs", "analysis", "core",
            ]),
        );
        layering.insert(
            "watch".into(),
            dep(&[
                "simcore", "storage", "dag", "lint", "obs", "data", "analysis", "core", "serve",
            ]),
        );
        layering.insert(
            "bench".into(),
            dep(&[
                "simcore", "storage", "store", "net", "cluster", "chaos", "dag", "lint", "obs",
                "data", "analysis", "core", "serve", "exec", "watch",
            ]),
        );
        AuditConfig {
            module_lines_threshold: 1500,
            hot_path_crates: dep(&["core", "simcore"]),
            exec_boundary_crates: dep(&["exec"]),
            float_scope: dep(&["hist", "digest", "attrib", "metric", "stream", "accum"]),
            layering,
        }
    }
}

/// Audit one source file given its crate and repo-relative path. The
/// entry point fixtures and property tests drive directly.
pub fn audit_source(
    crate_name: &str,
    rel_path: &str,
    source: &str,
    cfg: &AuditConfig,
) -> rules::FileAudit {
    rules::audit_file(crate_name, rel_path, source, cfg)
}

/// Audit a set of in-memory files `(crate, repo-relative path, source)`.
/// Output is independent of the order `files` is supplied in.
pub fn audit_files(files: &[(String, String, String)], cfg: &AuditConfig) -> AuditReport {
    let mut report = AuditReport::default();
    for (krate, path, src) in files {
        report.absorb(rules::audit_file(krate, path, src, cfg));
    }
    report.sort();
    report
}

/// Walk `<root>/crates/*/src/**/*.rs` (sorted), audit every file, and
/// return the combined report. I/O errors on individual files are
/// reported as findings rather than panics, so a permissions hiccup
/// cannot crash the gate silently green.
pub fn audit_workspace(root: &Path, cfg: &AuditConfig) -> std::io::Result<AuditReport> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files: Vec<(String, String, String)> = Vec::new();
    for cdir in crate_dirs {
        let krate = cdir
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("")
            .to_string();
        let src = cdir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut stack = vec![src.clone()];
        let mut paths: Vec<PathBuf> = Vec::new();
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
                let p = entry.path();
                if p.is_dir() {
                    stack.push(p);
                } else if p.extension().is_some_and(|e| e == "rs") {
                    paths.push(p);
                }
            }
        }
        paths.sort();
        for p in paths {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = std::fs::read_to_string(&p)?;
            files.push((krate.clone(), rel, text));
        }
    }
    Ok(audit_files(&files, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_code_described_and_parses() {
        for c in Code::ALL {
            assert!(!c.describe().is_empty());
            assert_eq!(Code::parse(&c.to_string()), Some(c));
        }
        assert_eq!(Code::parse("A999"), None);
    }

    #[test]
    fn report_counts_group_by_code_and_path() {
        let files = vec![(
            "core".to_string(),
            "crates/core/src/x.rs".to_string(),
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n"
                .to_string(),
        )];
        let r = audit_files(&files, &AuditConfig::default());
        let counts = r.counts();
        assert_eq!(
            counts.get(&(Code::A101, "crates/core/src/x.rs".to_string())),
            Some(&2),
            "two non-use occurrences: the type and the constructor"
        );
    }

    #[test]
    fn default_layering_covers_every_crate_dir() {
        // The table is the documented architecture; a new crate must be
        // added to it deliberately.
        let cfg = AuditConfig::default();
        for k in [
            "simcore", "storage", "store", "net", "cluster", "chaos", "dag", "lint", "obs", "data",
            "analysis", "core", "serve", "exec", "watch", "bench", "audit",
        ] {
            assert!(cfg.layering.contains_key(k), "{k} missing from layering");
        }
    }
}
