#![deny(unsafe_code)]

//! # vine-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (plus the
//! beyond-paper experiments), each with `run(...)` entry points
//! returning structured rows and a `main` that prints them and writes
//! CSV under `results/`. The `vine-fig <name>` binary dispatches on the
//! table in [`experiments::EXPERIMENTS`]; `vine-sim` is the general
//! single-run CLI. The Criterion benches in `benches/` run scaled-down
//! versions of the same experiments.
//!
//! | Paper artifact | Module | `vine-fig` name |
//! |---|---|---|
//! | Table I (stack evolution) | [`experiments::table1`] | `table1` |
//! | Table II (workloads) | [`experiments::table2`] | `table2` |
//! | Fig 7 (transfer heatmap) | [`experiments::fig7`] | `fig7` |
//! | Fig 8 (task time distribution) | [`experiments::fig8`] | `fig8` |
//! | Fig 10 (import hoisting) | [`experiments::fig10`] | `fig10` |
//! | Fig 11 (reduction shape) | [`experiments::fig11`] | `fig11` |
//! | Fig 12 (stack timelines) | [`experiments::fig12`] | `fig12` |
//! | Fig 13 (worker Gantt) | [`experiments::fig13`] | `fig13` |
//! | Fig 14a (vs Dask.Distributed) | [`experiments::fig14a`] | `fig14a` |
//! | Fig 14b (scaling to 2400 cores) | [`experiments::fig14b`] | `fig14b` |
//! | Fig 15 (DV3-Huge at 7200 cores) | [`experiments::fig15`] | `fig15` |
//! | Design ablations | [`experiments::ablations`] | `ablations` |
//! | Multi-tenant facility | [`experiments::facility`] | `facility` |
//! | Chaos matrix | [`experiments::chaos`] | `fig-chaos` |
//! | Sharded federation | [`experiments::shards`] | `fig-shards` |
//! | Streaming early stop | [`experiments::stream`] | `fig-stream` |
//! | Standing analyses | [`experiments::watch`] | `fig-watch` |

pub mod cli;
pub mod experiments;
pub mod obsout;
pub mod plot;
pub mod report;
