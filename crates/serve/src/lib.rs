#![deny(unsafe_code)]

//! # vine-serve — a multi-tenant analysis facility over the TaskVine engine
//!
//! The paper's near-interactive iteration times (§VII) assume an analyst
//! who *keeps coming back*: tweak a selection, resubmit, look at the new
//! histograms. A facility that tears the cluster down between submissions
//! throws away exactly the state that makes the second iteration fast —
//! the cachename-keyed partials sitting on worker disks. This crate keeps
//! that state alive and arbitrates it between competing analysis groups:
//!
//! * [`ShardedFacility`] — the facility: N ≥ 1 worker-pool shards
//!   advanced in deterministic lockstep. Each shard holds one persistent
//!   [`vine_storage::LocalCache`] per cluster worker *between* runs and
//!   threads slices of them through [`vine_core::RunRequest::session`]
//!   runs, so a resubmitted graph finds its intermediates warm and skips
//!   their producers (see [`vine_dag::MemoPlan`]). Admission is weighted
//!   fair-share (stride scheduling, [`FairShare`]) under per-tenant
//!   quotas on in-flight cores and resident cache bytes. With more than
//!   one shard, tenants are routed to home shards by rendezvous hashing
//!   ([`assign_shard`]), warm state is shared through the [`vine_store`]
//!   content-addressed object tier (a shard consults the tier before
//!   recomputing, and publishes what it materializes), and idle shards
//!   steal queued submissions cross-shard under the victim tenant's
//!   quotas. A single pool is `ShardedFacility::new(cfg.into())` for a
//!   [`FacilityConfig`]: one shard, no tier, no stealing.
//! * [`LoadGen`] — a seeded multi-tenant open-loop workload: Poisson
//!   arrivals of DV3-Small/Medium and RS-TriPhoton variants, with tunable
//!   probabilities of resubmitting the same analysis verbatim (full warm
//!   hit) or with an edited final selection (partial warm hit, only the
//!   reductions re-run — [`vine_analysis::WorkloadSpec::with_edit_generation`]).
//! * [`ShardedReport`] / [`FacilityReport`] — per-submission records
//!   (one report per shard) and per-tenant p50/p95/p99 makespan and
//!   queue-wait summaries, exportable as a deterministic
//!   [`vine_obs::MetricsRegistry`] text dump or CSV.
//! * [`ResultStore`] — content-addressed memoization of *physics* results
//!   (encoded histogram sets keyed by cachename), so a warm resubmission
//!   can return bit-identical histograms without recomputation.
//!
//! Everything is deterministic: identical seeds yield identical admission
//! sequences, identical records, and byte-identical metric exports.
//! Pre-flight, [`ShardedFacility::new`] lints the configuration once
//! ([`vine_lint::lint_sharded`]) and refuses ones that can never work
//! (zero-weight tenants, quotas exceeding the cluster, zero shards, a
//! broken tier).

pub mod facility;
pub mod loadgen;
pub mod report;
pub mod resultstore;
pub mod sharded;
pub mod tenant;

pub use facility::{graph_result_name, FacilityConfig, Submission, SubmissionRecord};
pub use loadgen::LoadGen;
pub use report::{FacilityReport, TenantSummary};
pub use resultstore::ResultStore;
pub use sharded::{assign_shard, ShardedConfig, ShardedFacility, ShardedReport};
pub use tenant::{FairShare, TenantSpec};
