//! One facility worker pool: persistent worker caches, admission control,
//! and the two-level event loop.
//!
//! A `Shard` is a discrete-event simulation *above* the engine's: it
//! owns the pool's clock, the per-tenant submission queues, and one
//! [`LocalCache`] per cluster worker that survives between runs. Each
//! admitted submission gets an exclusive slice of `workers_per_run`
//! workers; the slice's caches are checked out into a
//! [`SessionState`], the inner engine run executes (its own full DES),
//! and the post-run caches are written back **only when the facility
//! clock reaches the run's completion** — an earlier-finishing or
//! later-admitted run can never observe outputs of a run that is still
//! logically in flight.
//!
//! Admission (on every state change) is weighted fair-share with quotas:
//! among tenants with queued work whose in-flight core quota has room,
//! the stride scheduler's minimum-virtual-time tenant is admitted onto
//! the free workers whose resident caches overlap the submission's
//! cachenames the most. Resident-byte quotas are enforced after each
//! writeback by evicting the owning tenant's entries in deterministic
//! (sorted cachename) order.
//!
//! Shards are crate-private: [`crate::ShardedFacility`] owns one or more
//! of them and drives them all, so a single-pool facility is simply a
//! federation of one shard.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use std::rc::Rc;

use vine_analysis::ConvergenceObserver;
use vine_cluster::ClusterSpec;
use vine_core::{
    graph_file_cachename, EngineConfig, FaultPlan, RecoveryPolicy, RunObserver, RunRequest,
    RunStats, SessionState,
};
use vine_dag::{FileId, MemoPlan, TaskGraph};
use vine_lint::{FacilityFacts, SchedulerFamily};
use vine_simcore::{RngHub, SimDur, SimTime};
use vine_storage::{CacheEntryKind, CacheName, LocalCache};
use vine_store::ObjectStore;

use crate::report::FacilityReport;
use crate::resultstore::ResultStore;
use crate::tenant::{FairShare, TenantSpec};

/// Everything a facility needs to start serving (one pool's template).
#[derive(Clone, Debug)]
pub struct FacilityConfig {
    /// The shared cluster.
    pub cluster: ClusterSpec,
    /// The analysis groups, in fixed order (tenant indices refer here).
    pub tenants: Vec<TenantSpec>,
    /// Workers each admitted run receives, exclusively, for its duration.
    pub workers_per_run: usize,
    /// Table I stack for the inner engine runs (3 or 4 for warm caches;
    /// 1–2 retain nothing and every run is cold).
    pub stack: usize,
    /// Disable the inner runs' stochastic elements (instant worker
    /// start, no preemption). The facility is deterministic either way;
    /// this just makes the inner runs faster and their makespans purer.
    pub deterministic_runs: bool,
    /// Master seed: inner run seeds and load-generator draws derive from
    /// it. Identical seeds ⇒ identical admission sequences and reports.
    pub seed: u64,
    /// Refuse to start when the facility lints find errors.
    pub enforce_preflight: bool,
    /// Fault plan injected into every inner run (chaos-testing the
    /// facility end to end). [`FaultPlan::none`] injects nothing.
    pub chaos: FaultPlan,
    /// Recovery policy for the inner runs.
    pub recovery: RecoveryPolicy,
}

impl FacilityConfig {
    /// A small demonstration facility: 8 standard workers, two tenants
    /// ("atlas" at weight 2, "cms" at weight 1), 4 workers per run,
    /// stack 3.
    pub fn demo(seed: u64) -> Self {
        let cluster = ClusterSpec::standard(8);
        let half_cores = cluster.total_cores() / 2;
        let disk = cluster.worker.disk_bytes * cluster.workers as u64;
        FacilityConfig {
            cluster,
            tenants: vec![
                TenantSpec::new("atlas", 2.0)
                    .with_core_quota(half_cores)
                    .with_byte_quota(disk / 2),
                TenantSpec::new("cms", 1.0)
                    .with_core_quota(half_cores)
                    .with_byte_quota(disk / 2),
            ],
            workers_per_run: 4,
            stack: 3,
            deterministic_runs: true,
            seed,
            enforce_preflight: true,
            chaos: FaultPlan::none(),
            recovery: RecoveryPolicy::default(),
        }
    }

    /// Cores an admitted run occupies.
    pub fn run_cores(&self) -> u64 {
        self.workers_per_run as u64 * u64::from(self.cluster.worker.cores)
    }

    /// The snapshot the facility lints ([`vine_lint::lint_sharded`]) read.
    pub fn lint_facts(&self) -> FacilityFacts {
        FacilityFacts {
            scheduler: if self.stack >= 3 {
                SchedulerFamily::TaskVine
            } else {
                SchedulerFamily::WorkQueue
            },
            memoization: self.stack >= 3,
            workers: self.cluster.workers,
            cores_per_worker: self.cluster.worker.cores,
            disk_per_worker: self.cluster.worker.disk_bytes,
            workers_per_run: self.workers_per_run,
            tenants: self.tenants.iter().map(TenantSpec::lint_facts).collect(),
        }
    }
}

/// One graph submitted by one tenant.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Index into [`FacilityConfig::tenants`].
    pub tenant: usize,
    /// The work.
    pub graph: TaskGraph,
    /// Within-tenant ordering: higher runs first (arrival breaks ties).
    pub priority: i32,
    /// Facility-clock arrival time.
    pub arrival: SimTime,
    /// Display label for records and metrics.
    pub label: String,
    /// Convergence threshold for streaming runs: the fraction of the
    /// full run's statistical precision at which the run may stop early
    /// (see [`vine_analysis::ConvergenceObserver`]). `None` runs to
    /// completion without streaming; `Some(1.0)` streams partials but
    /// never stops early.
    pub stream_threshold: Option<f64>,
}

/// What happened to one submission, start to finish.
#[derive(Clone, Debug)]
pub struct SubmissionRecord {
    /// Global submission sequence number (ingest order).
    pub seq: usize,
    /// Tenant index.
    pub tenant: usize,
    /// Submission label.
    pub label: String,
    /// When it arrived.
    pub arrival: SimTime,
    /// When it was admitted.
    pub admitted: SimTime,
    /// When its run completed (facility clock).
    pub finished: SimTime,
    /// Workers it ran on, in selection order (best cache overlap first).
    pub workers: Vec<usize>,
    /// Bytes of already-resident intermediates its worker slice offered.
    pub overlap_bytes: u64,
    /// Inner run statistics.
    pub stats: RunStats,
    /// Inner run makespan.
    pub makespan: SimDur,
    /// Whether the inner run completed.
    pub completed: bool,
    /// Whether the inner run finished degraded (some tasks quarantined
    /// by the recovery policy under injected faults).
    pub degraded: bool,
    /// Fraction-complete at which the run's observer stopped it, for
    /// streaming submissions that converged early (1.0 = ran to the
    /// end; `None` = not a streaming run).
    pub stream_stopped_at: Option<f64>,
    /// Content digest (FNV-1a) of the streamed partial-result estimate,
    /// for streaming submissions. Matches the engine digest's
    /// `stream_partial_digest` counter.
    pub stream_digest: Option<u64>,
    /// Live partial entries this run published into the
    /// [`ResultStore`].
    pub partials_published: usize,
    /// Files pre-fetched out of the shared object tier before the run
    /// (federated facilities only; zero when no tier is attached).
    pub store_fetched_files: usize,
    /// Bytes of those pre-fetches.
    pub store_fetch_bytes: u64,
    /// Simulated transfer time charged for the pre-fetch, added to the
    /// run's facility-clock duration.
    pub store_fetch: SimDur,
}

impl SubmissionRecord {
    /// Time spent queued before admission.
    pub fn queue_wait(&self) -> SimDur {
        self.admitted.saturating_since(self.arrival)
    }

    /// Fraction of the graph's tasks satisfied from warm caches.
    pub fn warm_hit_ratio(&self) -> f64 {
        if self.stats.tasks_total == 0 {
            0.0
        } else {
            self.stats.memoized_tasks as f64 / self.stats.tasks_total as f64
        }
    }
}

/// One queued submission; crate-visible so the federation can move it
/// between shards when work stealing.
pub(crate) struct Queued {
    pub(crate) seq: usize,
    pub(crate) priority: i32,
    pub(crate) arrival: SimTime,
    pub(crate) graph: TaskGraph,
    pub(crate) label: String,
    pub(crate) stream_threshold: Option<f64>,
}

struct ActiveRun {
    record: SubmissionRecord,
    /// Post-run caches, held back until `record.finished`.
    caches: Vec<LocalCache>,
    /// Shared-tier entries pinned for this run's duration.
    pinned: Vec<CacheName>,
}

/// Caller-supplied streaming hooks for an externally driven (standing)
/// admission: the observer receives every partition delta, and the
/// recorder — when present — the inner run's full span/metric stream.
pub(crate) struct ExternalHooks<'a> {
    pub(crate) observer: &'a mut dyn RunObserver,
    pub(crate) recorder: Option<&'a mut dyn vine_obs::Recorder>,
}

/// The cachename a graph's final answer lives under: its first produced
/// file that no task consumes. `None` for graphs with no produced sink
/// (degenerate; lint G004 flags them).
pub fn graph_result_name(graph: &TaskGraph) -> Option<CacheName> {
    let consumed: BTreeSet<u32> = graph
        .tasks()
        .iter()
        .flat_map(|t| t.inputs.iter().map(|f| f.0))
        .collect();
    graph
        .files()
        .iter()
        .enumerate()
        .find(|(i, f)| f.producer.is_some() && !consumed.contains(&(*i as u32)))
        .map(|(i, _)| graph_file_cachename(graph, FileId(i as u32)))
}

/// A shard's handle onto the federation's shared object tier.
struct SharedStore {
    tier: Rc<RefCell<ObjectStore>>,
    /// This shard's index in the tier's accounting.
    shard: usize,
}

/// One multi-tenant worker pool. See the module docs for the model.
pub(crate) struct Shard {
    cfg: FacilityConfig,
    /// Per-worker persistent caches; a zero-capacity placeholder while a
    /// worker's cache is checked out into a running session.
    caches: Vec<LocalCache>,
    busy: Vec<bool>,
    share: FairShare,
    queues: Vec<VecDeque<Queued>>,
    /// Admission candidates: `(vtime, tenant)` for every tenant with
    /// queued work whose core quota has room. Kept in lockstep with
    /// `queues`/`inflight_cores` so admission is O(log tenants) instead
    /// of a full scan — load-bearing at federation scale (10⁵ tenants).
    ready: BTreeSet<(u64, usize)>,
    /// Tenants with queued work blocked on their in-flight core quota;
    /// they re-enter `ready` when a writeback frees cores.
    quota_blocked: BTreeSet<usize>,
    inflight_cores: Vec<u64>,
    /// Which tenant first materialized each resident cachename.
    owner: BTreeMap<CacheName, usize>,
    /// Staged submissions with their seqs, sorted by (arrival, seq)
    /// descending; pop from back.
    pending: Vec<(Submission, usize)>,
    active: Vec<ActiveRun>,
    records: Vec<SubmissionRecord>,
    now: SimTime,
    next_seq: usize,
    peak_inflight_cores: u64,
    /// Physics results (final and live partial) across runs.
    results: ResultStore,
    /// The federation's shared object tier, when one is configured.
    store: Option<SharedStore>,
    /// Next seq advances by the shard count, so seqs stay globally
    /// unique across the federation.
    seq_stride: usize,
}

impl Shard {
    /// Shard `index` of a `count`-shard federation over `tier` (if any).
    /// Seqs start at `index` and advance by `count`, so they stay
    /// globally unique and inner run seeds — derived from the seq — are
    /// stable under work stealing. The federation lints the config.
    pub(crate) fn new(
        cfg: FacilityConfig,
        tier: Option<Rc<RefCell<ObjectStore>>>,
        index: usize,
        count: usize,
    ) -> Self {
        assert!(index < count, "shard numbering out of range");
        let n = cfg.tenants.len();
        let weights = cfg.tenants.iter().map(|t| t.weight).collect();
        Shard {
            caches: (0..cfg.cluster.workers)
                .map(|_| LocalCache::new(cfg.cluster.worker.disk_bytes))
                .collect(),
            busy: vec![false; cfg.cluster.workers],
            share: FairShare::new(weights),
            queues: (0..n).map(|_| VecDeque::new()).collect(),
            ready: BTreeSet::new(),
            quota_blocked: BTreeSet::new(),
            inflight_cores: vec![0; n],
            owner: BTreeMap::new(),
            pending: Vec::new(),
            active: Vec::new(),
            records: Vec::new(),
            now: SimTime::ZERO,
            next_seq: index,
            peak_inflight_cores: 0,
            cfg,
            results: ResultStore::new(),
            store: tier.map(|tier| SharedStore { tier, shard: index }),
            seq_stride: count,
        }
    }

    /// The shard clock.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// The seq the next staged or standing submission receives.
    pub(crate) fn next_seq(&self) -> usize {
        self.next_seq
    }

    /// The completed submission numbered `seq`, if it ran here.
    pub(crate) fn record(&self, seq: usize) -> Option<&SubmissionRecord> {
        self.records.iter().find(|r| r.seq == seq)
    }

    /// The persistent per-worker caches (placeholders while checked out).
    #[cfg(test)]
    pub(crate) fn caches(&self) -> &[LocalCache] {
        &self.caches
    }

    /// The shard's result store: final blobs, the live partial entries
    /// streaming runs publish (keyed by cachename + fraction), and the
    /// epoch-versioned results standing submissions serve.
    pub(crate) fn results(&self) -> &ResultStore {
        &self.results
    }

    /// Mutable access to the result store (epoch publication).
    pub(crate) fn results_mut(&mut self) -> &mut ResultStore {
        &mut self.results
    }

    /// Unique resident bytes currently attributed to `tenant`.
    pub(crate) fn tenant_resident_bytes(&self, tenant: usize) -> u64 {
        self.owner
            .iter()
            .filter(|&(_, &o)| o == tenant)
            .filter_map(|(name, _)| self.resident_size(*name))
            .sum()
    }

    /// A preemption landing between runs: worker `w` loses its disk.
    /// (Preemptions *during* a run are the inner engine's business.)
    #[cfg(test)]
    pub(crate) fn preempt_worker(&mut self, w: usize) {
        assert!(!self.busy[w], "cannot preempt a checked-out worker slot");
        self.caches[w].clear_pins();
        self.caches[w].clear();
    }

    /// Stage submissions for the event loop. Seqs are assigned in the
    /// order given; arrivals may be in any time order.
    pub(crate) fn ingest(&mut self, subs: Vec<Submission>) {
        for s in subs {
            assert!(s.tenant < self.cfg.tenants.len(), "unknown tenant");
            self.pending.push((s, self.next_seq));
            self.next_seq += self.seq_stride;
        }
        // Pop-from-back order: latest arrival first in the vector.
        self.pending
            .sort_by_key(|(s, seq)| std::cmp::Reverse((s.arrival, *seq)));
    }

    /// Settle every event due at the current clock: completions, then
    /// arrivals, then admissions — repeated until quiescent (a warm run
    /// can finish in ~zero time, re-enabling completions at the same
    /// instant).
    fn step_now(&mut self) {
        loop {
            self.complete_due();
            self.arrive_due();
            if self.admit_all() == 0 {
                break;
            }
        }
    }

    /// Advance the shard clock to `t` (monotone) and settle. The
    /// federation's lockstep driver steps every shard with this.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
        self.step_now();
    }

    /// The earliest future event — run completion or staged arrival —
    /// or `None` when the shard is fully drained.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        let next_completion = self.active.iter().map(|r| r.record.finished).min();
        let next_arrival = self.pending.last().map(|(s, _)| s.arrival);
        match (next_completion, next_arrival) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(a)) => Some(a),
            (Some(c), Some(a)) => Some(c.min(a)),
        }
    }

    /// Admit a standing (reactive) run right now and settle until it
    /// completes: the inner run streams every partition delta into the
    /// caller's `hooks` instead of a shard-owned convergence loop. The
    /// run is charged against `tenant`'s fair share and core quota
    /// exactly like a queued admission.
    pub(crate) fn admit_standing(
        &mut self,
        tenant: usize,
        graph: TaskGraph,
        label: &str,
        hooks: ExternalHooks,
    ) -> SubmissionRecord {
        assert!(tenant < self.cfg.tenants.len(), "unknown tenant");
        self.step_now();
        // A standing run needs an exclusive slice and quota room like any
        // other; advance the clock through queued work until both hold.
        while self.free_workers() < self.cfg.workers_per_run || !self.tenant_has_quota_room(tenant)
        {
            let next = self
                .next_event_time()
                .expect("no future event can free a slice for the standing run");
            self.advance_to(next);
        }
        let seq = self.next_seq;
        self.next_seq += self.seq_stride;
        // Charge the refresh against the owning tenant: remove its (stale
        // after the charge) ready entry first, exactly as admit_all does.
        self.ready.remove(&(self.share.vtime(tenant), tenant));
        self.share.activate(tenant);
        self.share.charge(tenant, self.cfg.run_cores());
        let free: Vec<usize> = (0..self.busy.len()).filter(|&w| !self.busy[w]).collect();
        self.admit(
            tenant,
            Queued {
                seq,
                priority: 0,
                arrival: self.now,
                graph,
                label: label.to_string(),
                stream_threshold: None,
            },
            &free,
            Some(hooks),
        );
        self.mark_admissible(tenant);
        loop {
            self.step_now();
            if let Some(r) = self.record(seq) {
                return r.clone();
            }
            let next = self
                .next_event_time()
                .expect("admitted standing run must complete");
            self.now = self.now.max(next);
        }
    }

    /// Swap the fault plan and recovery policy injected into *subsequent*
    /// inner runs. Runs already in flight keep the plan they started with.
    pub(crate) fn set_chaos(&mut self, chaos: FaultPlan, recovery: RecoveryPolicy) {
        self.cfg.chaos = chaos;
        self.cfg.recovery = recovery;
    }

    /// The report so far (records in seq order).
    pub(crate) fn report(&self) -> FacilityReport {
        let mut records = self.records.clone();
        records.sort_by_key(|r| r.seq);
        FacilityReport {
            tenants: self.cfg.tenants.iter().map(|t| t.name.clone()).collect(),
            records,
            total_cores: u64::from(self.cfg.cluster.total_cores()),
            peak_inflight_cores: self.peak_inflight_cores,
            resident_bytes: self.caches.iter().map(|c| c.used()).sum(),
        }
    }

    // ------------------------------------------------------------------
    // Event processing
    // ------------------------------------------------------------------

    fn complete_due(&mut self) {
        loop {
            // Earliest (finished, seq) due run, one at a time.
            let idx = self
                .active
                .iter()
                .enumerate()
                .filter(|(_, r)| r.record.finished <= self.now)
                .min_by_key(|(_, r)| (r.record.finished, r.record.seq))
                .map(|(i, _)| i);
            let Some(i) = idx else { break };
            let run = self.active.swap_remove(i);
            self.writeback(run);
        }
    }

    fn writeback(&mut self, run: ActiveRun) {
        let tenant = run.record.tenant;
        for (&w, cache) in run.record.workers.iter().zip(run.caches) {
            self.caches[w] = cache;
            self.busy[w] = false;
        }
        self.inflight_cores[tenant] -= self.cfg.run_cores();
        // Cores freed: the tenant (if quota-blocked with queued work)
        // may be admissible again.
        if self.quota_blocked.contains(&tenant) && self.tenant_has_quota_room(tenant) {
            self.quota_blocked.remove(&tenant);
            self.ready.insert((self.share.vtime(tenant), tenant));
        }
        // Publish the run's intermediates into the shared tier (inputs
        // are externally re-readable, not store material) and release
        // the pins its pre-fetch took.
        if let Some(store) = &self.store {
            let mut tier = store.tier.borrow_mut();
            for &name in &run.pinned {
                tier.unpin(name);
            }
            for &w in &run.record.workers {
                for (name, size, kind) in self.caches[w].iter() {
                    if kind == CacheEntryKind::Intermediate {
                        let _ = tier.put(store.shard, name, size);
                    }
                }
            }
        }
        // Newly resident entries belong to the first tenant that
        // materialized them; entries that vanished everywhere (evicted
        // inside runs) drop off the ownership map.
        for &w in &run.record.workers {
            for (name, _, _) in self.caches[w].iter() {
                self.owner.entry(name).or_insert(tenant);
            }
        }
        let gone: Vec<CacheName> = self
            .owner
            .keys()
            .filter(|&&n| self.resident_size(n).is_none())
            .copied()
            .collect();
        for n in gone {
            self.owner.remove(&n);
        }
        self.enforce_byte_quota(tenant);
        self.records.push(run.record);
    }

    /// Largest resident copy of `name` across checked-in caches.
    fn resident_size(&self, name: CacheName) -> Option<u64> {
        self.caches.iter().filter_map(|c| c.size_of(name)).max()
    }

    /// Evict `tenant`-owned entries (sorted cachename order — oldest
    /// names are not privileged, but the order is reproducible) until
    /// the tenant is back under its resident-byte quota.
    fn enforce_byte_quota(&mut self, tenant: usize) {
        let quota = self.cfg.tenants[tenant].max_resident_bytes;
        let mut usage = self.tenant_resident_bytes(tenant);
        if usage <= quota {
            return;
        }
        let owned: Vec<CacheName> = self
            .owner
            .iter()
            .filter(|&(_, &o)| o == tenant)
            .map(|(n, _)| *n)
            .collect();
        for name in owned {
            if usage <= quota {
                break;
            }
            let Some(size) = self.resident_size(name) else {
                continue;
            };
            for c in &mut self.caches {
                c.clear_pins();
                let _ = c.remove(name);
            }
            self.owner.remove(&name);
            usage -= size.min(usage);
        }
    }

    fn arrive_due(&mut self) {
        while self
            .pending
            .last()
            .is_some_and(|(s, _)| s.arrival <= self.now)
        {
            let (s, seq) = self.pending.pop().expect("checked non-empty");
            let tenant = s.tenant;
            self.enqueue(
                tenant,
                Queued {
                    seq,
                    priority: s.priority,
                    arrival: s.arrival,
                    graph: s.graph,
                    label: s.label,
                    stream_threshold: s.stream_threshold,
                },
            );
        }
    }

    /// Queue one submission for `tenant` (arrival or stolen work) and
    /// refresh its admission bookkeeping.
    fn enqueue(&mut self, tenant: usize, q: Queued) {
        let queue = &mut self.queues[tenant];
        if queue.is_empty() {
            self.share.activate(tenant);
        }
        // Insert keeping (-priority, arrival, seq) order.
        let pos = queue
            .iter()
            .position(|e| (-e.priority, e.arrival, e.seq) > (-q.priority, q.arrival, q.seq))
            .unwrap_or(queue.len());
        queue.insert(pos, q);
        self.mark_admissible(tenant);
    }

    fn tenant_has_quota_room(&self, t: usize) -> bool {
        self.inflight_cores[t] + self.cfg.run_cores()
            <= u64::from(self.cfg.tenants[t].max_inflight_cores)
    }

    /// Re-derive which admission set the tenant belongs in. Idempotent;
    /// call after any change to its queue, vtime, or in-flight cores.
    fn mark_admissible(&mut self, t: usize) {
        if self.queues[t].is_empty() {
            self.ready.remove(&(self.share.vtime(t), t));
            self.quota_blocked.remove(&t);
            return;
        }
        if self.tenant_has_quota_room(t) {
            self.quota_blocked.remove(&t);
            self.ready.insert((self.share.vtime(t), t));
        } else {
            self.quota_blocked.insert(t);
        }
    }

    // ------------------------------------------------------------------
    // Admission
    // ------------------------------------------------------------------

    fn admit_all(&mut self) -> usize {
        let mut admitted = 0;
        loop {
            let free: Vec<usize> = (0..self.busy.len()).filter(|&w| !self.busy[w]).collect();
            if free.len() < self.cfg.workers_per_run {
                break;
            }
            // The ready set's head is exactly `share.pick` over eligible
            // tenants: min (vtime, index), entries kept fresh at every
            // vtime/queue/quota change.
            let Some(&(vt, t)) = self.ready.iter().next() else {
                break;
            };
            debug_assert_eq!(vt, self.share.vtime(t), "stale ready-set vtime");
            self.ready.remove(&(vt, t));
            let q = self.queues[t].pop_front().expect("ready ⇒ non-empty");
            self.share.charge(t, self.cfg.run_cores());
            self.admit(t, q, &free, None);
            admitted += 1;
            self.mark_admissible(t);
        }
        admitted
    }

    fn admit(&mut self, tenant: usize, q: Queued, free: &[usize], hooks: Option<ExternalHooks>) {
        // Cachenames of every produced file, indexed by file id (the
        // slice scorer and the store consult both read them).
        let mut names: Vec<Option<(CacheName, u64)>> = vec![None; q.graph.file_count()];
        for (i, f) in q.graph.files().iter().enumerate() {
            if f.producer.is_some() {
                names[i] = Some((
                    graph_file_cachename(&q.graph, FileId(i as u32)),
                    f.size_hint,
                ));
            }
        }
        // Cache-aware slice selection: prefer free workers already
        // holding this graph's intermediates (exact name *and* size).
        let wanted: Vec<(CacheName, u64)> = names.iter().flatten().copied().collect();
        let mut scored: Vec<(u64, usize)> = free
            .iter()
            .map(|&w| {
                let overlap: u64 = wanted
                    .iter()
                    .filter(|&&(n, s)| self.caches[w].size_of(n) == Some(s))
                    .map(|&(_, s)| s)
                    .sum();
                (overlap, w)
            })
            .collect();
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.truncate(self.cfg.workers_per_run);
        let overlap_bytes: u64 = scored.iter().map(|&(s, _)| s).sum();
        let slice: Vec<usize> = scored.iter().map(|&(_, w)| w).collect();

        let mut run_caches: Vec<LocalCache> = slice
            .iter()
            .map(|&w| {
                self.busy[w] = true;
                std::mem::replace(&mut self.caches[w], LocalCache::new(0))
            })
            .collect();

        // Consult the shared tier before recompute: anything the run
        // needs that is warm in the store but cold on this slice is
        // pre-fetched into the roomiest slice cache, pinned in the tier
        // for the run's duration, and charged one batched transfer at
        // the tier's simulated bandwidth.
        let mut store_fetched_files = 0usize;
        let mut store_fetch_bytes = 0u64;
        let mut store_fetch = SimDur::ZERO;
        let mut pinned: Vec<CacheName> = Vec::new();
        if let Some(store) = &self.store {
            let mut tier = store.tier.borrow_mut();
            let shard = store.shard;
            let plan = {
                let tier = &mut *tier;
                let caches = &run_caches;
                MemoPlan::compute_with_store(
                    &q.graph,
                    |f| {
                        names[f.0 as usize]
                            .is_some_and(|(n, s)| caches.iter().any(|c| c.size_of(n) == Some(s)))
                    },
                    |f| names[f.0 as usize].is_some_and(|(n, s)| tier.lookup(shard, n, s)),
                )
            };
            for &f in &plan.store_fetches {
                let (name, size) = names[f.0 as usize].expect("fetch set ⇒ produced file");
                // Roomiest cache first (ties → lowest index); a file no
                // slice cache can hold without eviction is simply not
                // fetched — its producer re-runs, which is always safe.
                let target = (0..run_caches.len())
                    .max_by_key(|&i| {
                        let c = &run_caches[i];
                        (c.capacity() - c.used(), std::cmp::Reverse(i))
                    })
                    .expect("slice is non-empty");
                let c = &mut run_caches[target];
                if c.capacity() - c.used() < size {
                    continue;
                }
                if c.insert(name, size, CacheEntryKind::Intermediate).is_ok() && tier.pin(name) {
                    pinned.push(name);
                    store_fetched_files += 1;
                    store_fetch_bytes += size;
                }
            }
            store_fetch = tier.fetch_cost(shard, store_fetch_bytes);
        }
        let mut session = SessionState::from_caches(run_caches);

        let inner_cluster = ClusterSpec {
            workers: self.cfg.workers_per_run,
            worker: self.cfg.cluster.worker,
            manager_link_bw: self.cfg.cluster.manager_link_bw,
        };
        let seed = RngHub::new(self.cfg.seed).stream_seed(&format!("run.{}", q.seq));
        let mut ecfg = EngineConfig::stack(self.cfg.stack, inner_cluster, seed);
        if self.cfg.deterministic_runs {
            ecfg = ecfg.deterministic();
        }
        // After deterministic(): an explicitly configured fault plan is
        // an operator request, not inner-run noise.
        ecfg = ecfg
            .with_chaos(self.cfg.chaos.clone())
            .with_recovery(self.cfg.recovery);

        // The cachename the run's final answer lives under: the produced
        // file nothing consumes. Live partial entries are keyed by it.
        let result_name = q.stream_threshold.and_then(|_| graph_result_name(&q.graph));

        let request = RunRequest::new(ecfg, q.graph).session(&mut session);
        let (result, stream_stopped_at, stream_digest, partials_published) =
            match (hooks, q.stream_threshold) {
                (Some(h), _) => {
                    // Externally driven (standing) admission: the caller's
                    // observer folds every partition delta itself, and the
                    // caller decides what to publish, so no convergence
                    // logic or partial publication happens here.
                    let mut request = request.observer(h.observer);
                    if let Some(rec) = h.recorder {
                        request = request.recorder(rec);
                    }
                    (request.run(), None, None, 0)
                }
                (None, Some(threshold)) => {
                    let mut obs = ConvergenceObserver::new(threshold);
                    let result = request.observer(&mut obs).run();
                    let mut published = 0;
                    if let Some(name) = result_name {
                        for s in obs.snapshots() {
                            self.results
                                .put_partial(name, s.milli_fraction, s.payload.clone());
                            published += 1;
                        }
                    }
                    let stopped_at = obs.stopped_at().unwrap_or(1.0);
                    let digest = obs.accumulator().digest();
                    (result, Some(stopped_at), Some(digest), published)
                }
                (None, None) => (request.run(), None, None, 0),
            };

        self.inflight_cores[tenant] += self.cfg.run_cores();
        let inflight: u64 = self.inflight_cores.iter().sum();
        self.peak_inflight_cores = self.peak_inflight_cores.max(inflight);

        self.active.push(ActiveRun {
            record: SubmissionRecord {
                seq: q.seq,
                tenant,
                label: q.label,
                arrival: q.arrival,
                admitted: self.now,
                finished: self.now + store_fetch + result.makespan,
                workers: slice,
                overlap_bytes,
                stats: result.stats,
                makespan: result.makespan,
                completed: matches!(result.outcome, vine_core::RunOutcome::Completed),
                degraded: matches!(result.outcome, vine_core::RunOutcome::Degraded { .. }),
                stream_stopped_at,
                stream_digest,
                partials_published,
                store_fetched_files,
                store_fetch_bytes,
                store_fetch,
            },
            caches: session.into_caches(),
            pinned,
        });
    }

    // ------------------------------------------------------------------
    // Federation hooks (work stealing)
    // ------------------------------------------------------------------

    /// Whether any tenant could be admitted right now if workers freed
    /// up (quota-blocked work does not count — admitting it is illegal).
    pub(crate) fn has_admissible_work(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Workers not checked out to a run.
    pub(crate) fn free_workers(&self) -> usize {
        self.busy.iter().filter(|&&b| !b).count()
    }

    /// Cores `tenant` currently holds in flight on this shard.
    pub(crate) fn tenant_inflight_cores(&self, tenant: usize) -> u64 {
        self.inflight_cores[tenant]
    }

    /// The entry a thief shard would steal: the front of the most
    /// underserved admissible tenant's queue, as `(tenant, arrival,
    /// seq)`. O(log tenants) — reads the ready set's head.
    pub(crate) fn steal_candidate(&self) -> Option<(usize, SimTime, usize)> {
        let &(_, t) = self.ready.iter().next()?;
        let front = self.queues[t].front().expect("ready ⇒ non-empty");
        Some((t, front.arrival, front.seq))
    }

    /// Remove the current steal candidate for `tenant` (its queue
    /// front) so another shard can run it.
    pub(crate) fn take_steal(&mut self, tenant: usize) -> Option<Queued> {
        let q = self.queues[tenant].pop_front()?;
        self.mark_admissible(tenant);
        Some(q)
    }

    /// Accept work stolen from another shard: queue it under the same
    /// tenant and settle admissions at the current clock.
    pub(crate) fn accept_stolen(&mut self, tenant: usize, q: Queued) {
        self.enqueue(tenant, q);
        self.step_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FacilityReport;
    use crate::ShardedFacility;
    use vine_analysis::WorkloadSpec;
    use vine_simcore::units::GB;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::dv3_small().scaled_down(20)
    }

    /// A single-pool facility: one shard, no tier, no stealing.
    fn pool(cfg: FacilityConfig) -> ShardedFacility {
        ShardedFacility::new(cfg.into()).unwrap()
    }

    /// Drain the single pool and return its shard's report.
    fn drain(f: &mut ShardedFacility) -> FacilityReport {
        f.drain().shards.remove(0)
    }

    /// Stage one streaming submission at t=0 and run it to completion.
    fn run_streaming(f: &mut ShardedFacility, label: &str, threshold: f64) -> SubmissionRecord {
        let mut s = sub(0, 0, label);
        s.stream_threshold = Some(threshold);
        f.ingest(vec![s]);
        drain(f).records.remove(0)
    }

    fn sub(tenant: usize, at: u64, label: &str) -> Submission {
        Submission {
            tenant,
            graph: spec().to_graph(),
            priority: 0,
            arrival: SimTime::from_secs(at),
            label: label.to_string(),
            stream_threshold: None,
        }
    }

    #[test]
    fn warm_resubmission_is_much_faster_and_fully_memoized() {
        let mut f = pool(FacilityConfig::demo(7));
        let cold = f.run_now(0, spec().to_graph(), "cold");
        let warm = f.run_now(0, spec().to_graph(), "warm");
        assert!(cold.completed && warm.completed);
        assert_eq!(warm.stats.task_executions, 0, "everything memoized");
        assert_eq!(warm.stats.memoized_tasks as usize, warm.stats.tasks_total);
        assert!(warm.makespan.as_secs_f64() * 3.0 < cold.makespan.as_secs_f64());
        assert!(warm.overlap_bytes > 0);
    }

    #[test]
    fn edited_resubmission_reruns_only_reductions() {
        let mut f = pool(FacilityConfig::demo(7));
        let cold = f.run_now(0, spec().to_graph(), "cold");
        let edited = f.run_now(0, spec().with_edit_generation(1).to_graph(), "edit");
        assert!(edited.completed);
        // Process stage (the bulk) memoized; reductions re-ran.
        assert!(edited.stats.memoized_tasks > 0);
        assert!(edited.stats.task_executions > 0);
        assert!(edited.stats.task_executions < cold.stats.task_executions);
    }

    #[test]
    fn quota_blocked_tenant_waits_without_blocking_others() {
        let mut cfg = FacilityConfig::demo(11);
        // Tenant 0 may hold only one run's cores in flight.
        cfg.tenants[0].max_inflight_cores = cfg.run_cores() as u32;
        let mut f = pool(cfg);
        f.ingest(vec![sub(0, 0, "a0"), sub(0, 0, "a1"), sub(1, 0, "b0")]);
        let report = drain(&mut f);
        assert_eq!(report.records.len(), 3);
        let a1 = report.records.iter().find(|r| r.label == "a1").unwrap();
        let b0 = report.records.iter().find(|r| r.label == "b0").unwrap();
        // b0 was admitted immediately; a1 had to wait for a0's cores.
        assert_eq!(b0.queue_wait(), SimDur::ZERO);
        assert!(a1.queue_wait() > SimDur::ZERO);
    }

    #[test]
    fn byte_quota_evicts_deterministically() {
        let mut cfg = FacilityConfig::demo(13);
        cfg.tenants[0].max_resident_bytes = GB / 2;
        let mut f = pool(cfg);
        f.run_now(0, spec().to_graph(), "big");
        let resident = f.shard_mut(0).tenant_resident_bytes(0);
        assert!(
            resident <= GB / 2,
            "quota enforced after writeback: {resident} bytes"
        );
    }

    #[test]
    fn preflight_errors_refuse_service() {
        let mut cfg = FacilityConfig::demo(1);
        cfg.tenants[0].weight = 0.0;
        let err = ShardedFacility::new(cfg.into())
            .err()
            .expect("zero weight must refuse");
        assert!(err.has_code(vine_lint::Code::F002));
    }

    #[test]
    fn higher_priority_jumps_the_tenant_queue() {
        let mut f = pool(FacilityConfig::demo(3));
        // Fill the cluster so later arrivals queue.
        f.ingest(vec![sub(0, 0, "w0"), sub(1, 0, "w1")]);
        let mut low = sub(0, 1, "low");
        low.priority = 0;
        let mut high = sub(0, 1, "high");
        high.priority = 5;
        f.ingest(vec![low, high]);
        let report = drain(&mut f);
        let admitted = |label: &str| {
            report
                .records
                .iter()
                .find(|r| r.label == label)
                .unwrap()
                .admitted
        };
        assert!(admitted("high") <= admitted("low"));
    }

    #[test]
    fn between_run_preemption_forces_partial_rerun() {
        let mut f = pool(FacilityConfig::demo(17));
        let cold = f.run_now(0, spec().to_graph(), "cold");
        // Preempt all but one warm worker: entries replicated only among
        // the victims are lost for good, the survivor's copies still hit.
        let shard = f.shard_mut(0);
        let warm_workers: Vec<usize> = (0..shard.caches().len())
            .filter(|&w| !shard.caches()[w].is_empty())
            .collect();
        assert!(warm_workers.len() > 1, "need survivors and victims");
        for &w in &warm_workers[1..] {
            shard.preempt_worker(w);
        }
        let warm = f.run_now(0, spec().to_graph(), "after-preempt");
        assert!(warm.completed);
        assert!(warm.stats.task_executions > 0, "lost entries must re-run");
        assert!(
            warm.stats.task_executions < cold.stats.task_executions,
            "surviving workers' entries must still hit"
        );
    }

    #[test]
    fn same_seed_same_report_bytes() {
        let run = |seed| {
            let mut f = pool(FacilityConfig::demo(seed));
            f.ingest(vec![sub(0, 0, "x"), sub(1, 3, "y"), sub(0, 5, "z")]);
            let r = drain(&mut f);
            (r.to_csv(), r.to_metrics().to_text())
        };
        let (csv_a, metrics_a) = run(99);
        let (csv_b, metrics_b) = run(99);
        assert_eq!(csv_a, csv_b);
        assert_eq!(metrics_a, metrics_b);
    }

    #[test]
    fn fair_share_holds_under_injected_faults() {
        let mut cfg = FacilityConfig::demo(23);
        cfg.chaos = FaultPlan::preset("storm").unwrap().with_seed(23);
        cfg.recovery = RecoveryPolicy::hardened();
        let mut f = pool(cfg);
        f.ingest(vec![
            sub(0, 0, "a0"),
            sub(1, 0, "b0"),
            sub(0, 2, "a1"),
            sub(1, 2, "b1"),
        ]);
        let report = drain(&mut f);
        // Every submission is served even while every inner run is being
        // bombarded; hardened recovery completes or degrades, never
        // wedges the facility.
        assert_eq!(report.records.len(), 4);
        for r in &report.records {
            assert!(
                r.completed || r.degraded,
                "{} neither finished state",
                r.label
            );
        }
        let injected: u64 = report
            .records
            .iter()
            .map(|r| r.stats.preemptions + r.stats.transient_failures)
            .sum();
        assert!(injected > 0, "the storm never reached the inner runs");
        // And the facility stays bit-deterministic under chaos.
        let mut cfg2 = FacilityConfig::demo(23);
        cfg2.chaos = FaultPlan::preset("storm").unwrap().with_seed(23);
        cfg2.recovery = RecoveryPolicy::hardened();
        let mut f2 = pool(cfg2);
        f2.ingest(vec![
            sub(0, 0, "a0"),
            sub(1, 0, "b0"),
            sub(0, 2, "a1"),
            sub(1, 2, "b1"),
        ]);
        assert_eq!(report.to_csv(), drain(&mut f2).to_csv());
    }

    #[test]
    fn streaming_submission_publishes_partials_and_saves_cores() {
        let mut f = pool(FacilityConfig::demo(29));
        let full = f.run_now(0, spec().to_graph(), "full");
        assert!(full.completed);

        // Fresh facility (cold caches) so the streaming run is not
        // trivially memoized; low threshold → stop at 25% precision.
        let mut fs = pool(FacilityConfig::demo(29));
        let streamed = run_streaming(&mut fs, "stream", 0.5);
        assert!(streamed.completed, "early stop is Completed, not Degraded");
        assert!(!streamed.degraded);
        assert!(
            streamed.stream_stopped_at.unwrap() < 1.0,
            "a 0.5 threshold must converge before the end"
        );
        assert!(streamed.stats.early_stopped);
        assert!(streamed.stats.early_stop_cancelled > 0, "cone cancelled");
        assert!(streamed.partials_published > 0, "partials in the store");
        assert!(fs.results_for(0).partial_count() > 0);
        assert!(streamed.stream_digest.is_some());
        assert!(
            streamed.stats.total_task_busy_us < full.stats.total_task_busy_us,
            "early stop must save core-seconds: {} vs {}",
            streamed.stats.total_task_busy_us,
            full.stats.total_task_busy_us,
        );
        assert!(streamed.makespan < full.makespan, "first plot sooner");
    }

    #[test]
    fn streaming_threshold_one_matches_plain_run() {
        let mut a = pool(FacilityConfig::demo(31));
        let plain = a.run_now(0, spec().to_graph(), "plain");
        let mut b = pool(FacilityConfig::demo(31));
        let streamed = run_streaming(&mut b, "stream", 1.0);
        assert_eq!(plain.makespan, streamed.makespan);
        assert_eq!(plain.stats.task_executions, streamed.stats.task_executions);
        assert!(!streamed.stats.early_stopped);
        assert_eq!(streamed.stream_stopped_at, Some(1.0));
        // Partial entries were still published along the way.
        assert!(streamed.partials_published > 0);
    }
}
