//! The facility: N ≥ 1 independent worker-pool shards advanced in
//! lockstep over a shared clock, optionally backed by one shared
//! content-addressed object tier ([`vine_store::ObjectStore`]).
//!
//! ## Model
//!
//! A production HEP facility is not one manager over one worker pool; it
//! is several manager instances, each with its own pool, serving a common
//! tenant population. A single pool is the N = 1 case:
//! `ShardedFacility::new(FacilityConfig::demo(seed).into())` is one shard,
//! no tier, no stealing. Each shard (the crate-private `facility::Shard`)
//! does its own event processing — admission, writeback, quotas, store
//! consults — and this module drives them all:
//!
//! * **Routing** — each tenant has a home shard chosen by rendezvous
//!   (highest-random-weight) hashing over `(tenant name, shard index)`.
//!   Adding a shard reassigns only ~1/N of tenants, and the assignment
//!   is a pure function of the name — stable across runs, machines, and
//!   ingest order.
//! * **Lockstep advancement** — shards are discrete-event simulations
//!   with private clocks. The federation repeatedly settles every shard
//!   at the global clock (in shard-index order), then advances the
//!   global clock to the earliest next event across shards. Determinism
//!   follows by induction: each settle round's outcome depends only on
//!   shard states at the same global instant and the fixed iteration
//!   order, never on wall-clock interleaving.
//! * **Shared warm tier** — every shard consults the [`ObjectStore`]
//!   during admission (a `MemoPlan` "warm-in-store" residency source):
//!   intermediates produced on shard A satisfy recompute on shard B at
//!   the cost of one simulated store→shard transfer, and every run's
//!   intermediates are published back on writeback.
//! * **Work stealing** — after each settle round, a shard with a free
//!   worker slice and no admissible queue of its own takes the most
//!   underserved admissible entry from the most backlogged competitor,
//!   gated by the tenant's aggregate (federation-wide) in-flight core
//!   quota, so stealing can never launder a quota violation across
//!   shards.
//!
//! A single-shard federation with no store is the single-pool facility;
//! `tests/sharded.rs` pins its report digest.

use std::cell::RefCell;
use std::rc::Rc;

use vine_core::{FaultPlan, RecoveryPolicy, RunObserver};
use vine_dag::TaskGraph;
use vine_lint::{lint_sharded, Report, ShardFacts};
use vine_simcore::SimTime;
use vine_store::{ObjectStore, StoreConfig};

use crate::facility::{ExternalHooks, FacilityConfig, Shard, Submission, SubmissionRecord};
use crate::report::{percentile, warm_hit_ratio, FacilityReport};
use crate::resultstore::ResultStore;

/// Knobs for a facility of one or more shards.
#[derive(Clone, Debug)]
pub struct ShardedConfig {
    /// The per-shard facility template: every shard runs this config
    /// (cluster, tenants, stack, seed) over its own worker pool.
    pub base: FacilityConfig,
    /// Number of independent worker-pool shards.
    pub shards: usize,
    /// The shared object tier; `None` leaves shards fully isolated
    /// (each still warm within itself, cold across shards).
    pub store: Option<StoreConfig>,
    /// Allow idle shards to steal queued work from backlogged ones.
    pub work_stealing: bool,
}

impl ShardedConfig {
    /// A demonstration federation: the [`FacilityConfig::demo`] shard
    /// template, four shards, the demo store tier, stealing on.
    pub fn demo(seed: u64) -> Self {
        ShardedConfig {
            base: FacilityConfig::demo(seed),
            shards: 4,
            store: Some(StoreConfig::demo()),
            work_stealing: true,
        }
    }

    /// The snapshot [`vine_lint::lint_sharded`] reads.
    pub fn shard_facts(&self) -> ShardFacts {
        ShardFacts {
            shards: self.shards,
            store_enabled: self.store.is_some(),
            store_capacity_bytes: self.store.as_ref().map_or(0, |s| s.capacity_bytes),
            store_bw: self.store.as_ref().map_or(0.0, |s| s.store_bw),
            shard_bw: self.store.as_ref().map_or(0.0, |s| s.shard_bw),
            work_stealing: self.work_stealing,
        }
    }
}

/// A single-pool facility: one shard, no shared tier, no stealing.
impl From<FacilityConfig> for ShardedConfig {
    fn from(base: FacilityConfig) -> Self {
        ShardedConfig {
            base,
            shards: 1,
            store: None,
            work_stealing: false,
        }
    }
}

/// 64-bit FNV-1a, the repo's standard content hash.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// Avalanche finalizer (the 64-bit murmur3 fmix). FNV-1a barely mixes
/// trailing-byte differences — for `name ‖ shard` keys the shard index is
/// exactly the tail, so raw FNV scores are correlated across shards and
/// rendezvous loses its minimal-disruption bound (~2× the tenants moved
/// on shard growth). The finalizer restores full diffusion.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The rendezvous (highest-random-weight) home shard for a tenant name:
/// argmax over shards of `fmix64(fnv64(name ‖ shard))`. Ties break on
/// the lower shard index (collisions, vanishingly rare). Growing a
/// federation N → N+1 moves a ~1/(N+1) fraction of tenants, all of them
/// onto the new shard (property-tested in `tests/properties.rs`).
pub fn assign_shard(tenant_name: &str, shards: usize) -> usize {
    assert!(shards > 0, "federation needs at least one shard");
    (0..shards)
        .max_by_key(|&s| {
            let mut key = tenant_name.as_bytes().to_vec();
            key.extend_from_slice(&(s as u64).to_le_bytes());
            (fmix64(fnv1a_64(&key)), std::cmp::Reverse(s))
        })
        .expect("non-empty shard range")
}

/// The outcome of a facility session: one report per shard plus the
/// tier's final accounting.
#[derive(Clone, Debug)]
pub struct ShardedReport {
    /// Per-shard facility reports, in shard order.
    pub shards: Vec<FacilityReport>,
    /// The shared tier's metrics text export (sorted, byte-stable);
    /// empty string when no store was attached.
    pub store_metrics: String,
    /// Cross-shard steals executed.
    pub steals: u64,
}

impl ShardedReport {
    /// Completed submissions across all shards.
    pub fn total_records(&self) -> usize {
        self.shards.iter().map(|s| s.records.len()).sum()
    }

    /// Fraction of all submitted tasks satisfied from warm caches
    /// (local or store-prefetched), federation-wide.
    pub fn warm_hit_ratio(&self) -> f64 {
        warm_hit_ratio(self.shards.iter().flat_map(|s| &s.records))
    }

    /// The `q`-th percentile of queue wait across every record, seconds.
    pub fn queue_wait_percentile(&self, q: f64) -> f64 {
        let waits: Vec<f64> = self
            .shards
            .iter()
            .flat_map(|s| &s.records)
            .map(|r| r.queue_wait().as_secs_f64())
            .collect();
        percentile(&waits, q)
    }

    /// When the last run finished anywhere, seconds.
    pub fn horizon_s(&self) -> f64 {
        self.shards
            .iter()
            .map(FacilityReport::horizon_s)
            .fold(0.0, f64::max)
    }

    /// The federation's full deterministic text form: every shard's CSV
    /// (prefixed with a shard header) followed by the tier metrics and
    /// the steal count. [`ShardedReport::digest`] hashes this.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.shards.iter().enumerate() {
            out.push_str(&format!("# shard {i}\n"));
            out.push_str(&s.to_csv());
        }
        out.push_str("# store\n");
        out.push_str(&self.store_metrics);
        out.push_str(&format!("# steals {}\n", self.steals));
        out
    }

    /// FNV-1a content digest of [`ShardedReport::to_text`] — the replay
    /// identity the shard gate compares across runs.
    pub fn digest(&self) -> u64 {
        fnv1a_64(self.to_text().as_bytes())
    }
}

/// The facility: one or more shards driven in lockstep. See the module
/// docs for the model.
pub struct ShardedFacility {
    cfg: ShardedConfig,
    shards: Vec<Shard>,
    store: Option<Rc<RefCell<ObjectStore>>>,
    preflight: Report,
    steals: u64,
}

impl ShardedFacility {
    /// Build a facility, running the facility lints plus the sharding
    /// lints (F006–F008) once against the combined configuration. With
    /// `base.enforce_preflight`, a config with lint errors (no tenants,
    /// zero weights, impossible quotas or slices, no shards, a broken
    /// tier) is refused and the report returned as `Err`.
    pub fn new(cfg: ShardedConfig) -> Result<Self, Report> {
        let preflight = lint_sharded(&cfg.base.lint_facts(), &cfg.shard_facts());
        if cfg.base.enforce_preflight && preflight.has_errors() {
            return Err(preflight);
        }
        let store = cfg
            .store
            .as_ref()
            .map(|sc| Rc::new(RefCell::new(ObjectStore::new(sc.clone(), cfg.shards))));
        let shards = (0..cfg.shards)
            .map(|i| Shard::new(cfg.base.clone(), store.clone(), i, cfg.shards))
            .collect();
        Ok(ShardedFacility {
            cfg,
            shards,
            store,
            preflight,
            steals: 0,
        })
    }

    /// The pre-flight lint report (warnings survive even when clean
    /// enough to start).
    pub fn preflight(&self) -> &Report {
        &self.preflight
    }

    /// The shared tier, when configured.
    pub fn store(&self) -> Option<&Rc<RefCell<ObjectStore>>> {
        self.store.as_ref()
    }

    /// A tenant's home shard under this federation's routing.
    pub fn home_shard(&self, tenant: usize) -> usize {
        assign_shard(&self.cfg.base.tenants[tenant].name, self.cfg.shards)
    }

    /// Route submissions to their tenants' home shards. Relative order
    /// within a shard follows the input order (seqs are assigned per
    /// shard in stride, so they stay globally unique).
    pub fn ingest(&mut self, subs: Vec<Submission>) {
        let mut per_shard: Vec<Vec<Submission>> =
            (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for s in subs {
            let home = self.home_shard(s.tenant);
            per_shard[home].push(s);
        }
        for (shard, batch) in self.shards.iter_mut().zip(per_shard) {
            shard.ingest(batch);
        }
    }

    /// Run the lockstep event loop until every shard is drained, then
    /// return the combined report. Within a shard, completions are
    /// processed before arrivals at equal times, and admission is
    /// retried after every state change.
    pub fn drain(&mut self) -> ShardedReport {
        self.settle();
        self.report()
    }

    /// The lockstep loop behind [`drain`](Self::drain) and
    /// [`run_now`](Self::run_now).
    fn settle(&mut self) {
        let mut now = SimTime::ZERO;
        loop {
            // Settle every shard at the global clock, in index order.
            for shard in &mut self.shards {
                shard.advance_to(now);
            }
            if self.cfg.work_stealing {
                while self.steal_once() {}
            }
            let next = self.shards.iter().filter_map(Shard::next_event_time).min();
            let Some(next) = next else { break };
            now = now.max(next);
        }
    }

    /// Submit one graph at `tenant`'s home-shard clock and run the
    /// facility until it completes (the interactive, single-analyst
    /// path). Returns the submission's record.
    pub fn run_now(&mut self, tenant: usize, graph: TaskGraph, label: &str) -> SubmissionRecord {
        let home = &self.shards[self.home_shard(tenant)];
        let seq = home.next_seq();
        let arrival = home.now();
        self.ingest(vec![Submission {
            tenant,
            graph,
            priority: 0,
            arrival,
            label: label.to_string(),
            stream_threshold: None,
        }]);
        self.settle();
        // Seqs are federation-unique; a steal may have moved the run.
        self.shards
            .iter()
            .find_map(|s| s.record(seq))
            .expect("drained facility must have recorded the submission")
            .clone()
    }

    /// Run a standing (reactive) submission right now on `tenant`'s home
    /// shard: every partition delta streams into the caller's `observer`
    /// (and, when given, the inner run's span/metric stream into
    /// `recorder`), so a reactive scheduler can fold refresh deltas into
    /// a persistent accumulator. The run is charged against `tenant`'s
    /// fair share and core quota exactly like a queued admission. Every
    /// other shard is then re-settled to the home shard's clock,
    /// preserving the lockstep-determinism induction (see the module
    /// docs).
    pub fn run_standing<'a>(
        &mut self,
        tenant: usize,
        graph: TaskGraph,
        label: &str,
        observer: &'a mut dyn RunObserver,
        recorder: Option<&'a mut dyn vine_obs::Recorder>,
    ) -> SubmissionRecord {
        let home = self.home_shard(tenant);
        let record = self.shards[home].admit_standing(
            tenant,
            graph,
            label,
            ExternalHooks { observer, recorder },
        );
        let t = self.shards[home].now();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if i != home {
                shard.advance_to(t);
            }
        }
        record
    }

    /// Swap the fault plan and recovery policy injected into every
    /// shard's *subsequent* inner runs — mid-timeline chaos for reactive
    /// sessions. Runs already in flight keep the plan they started with.
    pub fn inject_chaos(&mut self, chaos: FaultPlan, recovery: RecoveryPolicy) {
        for shard in &mut self.shards {
            shard.set_chaos(chaos.clone(), recovery);
        }
    }

    /// The result store of `tenant`'s home shard (where its streamed
    /// partials and standing results are published).
    pub fn results_for(&self, tenant: usize) -> &ResultStore {
        self.shards[self.home_shard(tenant)].results()
    }

    /// Mutable access to `tenant`'s home-shard result store.
    pub fn results_mut_for(&mut self, tenant: usize) -> &mut ResultStore {
        let home = self.home_shard(tenant);
        self.shards[home].results_mut()
    }

    /// The combined report so far.
    pub fn report(&self) -> ShardedReport {
        ShardedReport {
            shards: self.shards.iter().map(Shard::report).collect(),
            store_metrics: self
                .store
                .as_ref()
                .map(|s| s.borrow().metrics().to_text())
                .unwrap_or_default(),
            steals: self.steals,
        }
    }

    /// Shard `index`, for the shard-level unit tests.
    #[cfg(test)]
    pub(crate) fn shard_mut(&mut self, index: usize) -> &mut Shard {
        &mut self.shards[index]
    }

    /// One steal: the first idle shard (free slice, nothing admissible
    /// of its own) takes the globally longest-waiting admissible entry
    /// whose tenant has aggregate quota room, and admits it at the
    /// current clock. Returns whether a steal happened.
    fn steal_once(&mut self) -> bool {
        let wpr = self.cfg.base.workers_per_run;
        let thief = (0..self.shards.len()).find(|&i| {
            let f = &self.shards[i];
            !f.has_admissible_work() && f.free_workers() >= wpr
        });
        let Some(thief) = thief else { return false };

        // The longest-waiting candidate across the other shards whose
        // tenant's federation-wide in-flight cores leave quota room.
        let run_cores = self.cfg.base.run_cores();
        let victim = (0..self.shards.len())
            .filter(|&i| i != thief)
            .filter_map(|i| {
                let (tenant, arrival, seq) = self.shards[i].steal_candidate()?;
                let aggregate: u64 = self
                    .shards
                    .iter()
                    .map(|f| f.tenant_inflight_cores(tenant))
                    .sum();
                let quota = u64::from(self.cfg.base.tenants[tenant].max_inflight_cores);
                (aggregate + run_cores <= quota).then_some((arrival, seq, i, tenant))
            })
            .min();
        let Some((_, _, victim, tenant)) = victim else {
            return false;
        };
        let Some(q) = self.shards[victim].take_steal(tenant) else {
            return false;
        };
        self.shards[thief].accept_stolen(tenant, q);
        self.steals += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_is_stable_and_spreading() {
        // Pure function of the name: same answer twice.
        assert_eq!(assign_shard("atlas", 4), assign_shard("atlas", 4));
        // All shards of a reasonable federation get someone.
        let shards = 4;
        let mut seen = vec![false; shards];
        for i in 0..64 {
            seen[assign_shard(&format!("tenant-{i}"), shards)] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 names must cover 4 shards");
        // Single shard takes everyone.
        assert_eq!(assign_shard("anyone", 1), 0);
    }

    #[test]
    fn rendezvous_is_minimally_disruptive() {
        // Growing N→N+1 only moves tenants whose new shard is the new
        // one; nobody is shuffled between old shards.
        for i in 0..128 {
            let name = format!("tenant-{i}");
            let old = assign_shard(&name, 4);
            let new = assign_shard(&name, 5);
            assert!(new == old || new == 4, "{name}: {old} -> {new}");
        }
    }

    #[test]
    fn zero_shards_refused() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.shards = 0;
        let err = ShardedFacility::new(cfg).err().expect("must refuse");
        assert!(err.has_code(vine_lint::Code::F006));
    }

    #[test]
    fn broken_store_refused() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.store = Some(StoreConfig::demo().with_capacity(0));
        let err = ShardedFacility::new(cfg).err().expect("must refuse");
        assert!(err.has_code(vine_lint::Code::F007));
    }

    #[test]
    fn single_shard_stealing_warns_but_serves() {
        let mut cfg = ShardedConfig::demo(1);
        cfg.shards = 1;
        let fed = ShardedFacility::new(cfg).expect("warning is not refusal");
        assert!(fed.preflight().has_code(vine_lint::Code::F008));
    }
}
