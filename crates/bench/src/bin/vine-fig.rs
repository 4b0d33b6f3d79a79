//! vine-fig — every table, figure and experiment behind one name.
//!
//! Usage: `vine-fig <name> [args] [--trace-out DIR] [--metrics]`, where
//! `<name>` is a row of [`vine_bench::experiments::EXPERIMENTS`] and the
//! row's defaults fill in positional arguments not given. No name, or an
//! unknown one, lists the names and exits 2; a failed gate exits 1.

use vine_bench::experiments::{self, Fig, EXPERIMENTS};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let Some(exp) = experiments::find(&name) else {
        if !name.is_empty() {
            eprintln!("unknown experiment {name}");
        }
        eprintln!("usage: vine-fig <name> [args] [--trace-out DIR] [--metrics]");
        eprintln!("experiments (default arguments):");
        for e in EXPERIMENTS {
            let row = format!("  {:<12}{}", e.name, e.defaults.join(" "));
            eprintln!("{}", row.trim_end());
        }
        std::process::exit(2);
    };
    let fig = Fig::new(exp, args);
    if let Err(e) = (exp.main)(&fig) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
