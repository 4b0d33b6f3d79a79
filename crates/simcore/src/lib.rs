#![deny(unsafe_code)]

//! # vine-simcore — deterministic discrete-event simulation kernel
//!
//! Foundation for the TaskVine reproduction: every experiment in the paper
//! (Tables I–II, Figures 7–15) runs on a discrete-event simulation of the
//! cluster, network, storage, and scheduler stack. This crate provides the
//! pieces every substrate shares:
//!
//! * [`SimTime`] / [`SimDur`] — integer-microsecond instants and durations,
//!   so event ordering is exact and runs are bit-reproducible.
//! * [`EventQueue`] — a priority queue with deterministic FIFO tie-breaking
//!   and lazy cancellation (needed when network flow completions are
//!   rescheduled as bandwidth shares change).
//! * [`RngHub`] — named, independently-seeded RNG streams so that changing
//!   one stochastic knob (e.g. preemption) does not reshuffle unrelated
//!   draws (e.g. task durations).
//! * [`Dist`] — the duration/size distributions used by workload models.
//! * [`trace`] — time-series, interval (Gantt), transfer-matrix, and
//!   log-histogram sinks that back the paper's figures.

pub mod dist;
pub mod event;
pub mod rng;
pub mod time;
pub mod trace;
pub mod units;

pub use dist::Dist;
pub use event::{EventId, EventQueue};
pub use rng::RngHub;
pub use time::{SimDur, SimTime};
