//! Facility reporting: per-submission records, per-tenant latency
//! summaries, and deterministic exports (one [`FacilityReport`] per
//! shard; [`crate::ShardedReport`] combines them).
//!
//! Everything here is a pure function of the records, and the records
//! are deterministic given the facility seed — so [`FacilityReport::to_csv`]
//! and [`FacilityReport::to_metrics`] (whose text export sorts by metric
//! name) are byte-identical across repeated runs, which is what the
//! determinism tests pin.

use vine_obs::MetricsRegistry;

use crate::facility::SubmissionRecord;

/// The outcome of one shard's session.
#[derive(Clone, Debug)]
pub struct FacilityReport {
    /// Tenant names, in facility order.
    pub tenants: Vec<String>,
    /// One record per completed submission, in seq order.
    pub records: Vec<SubmissionRecord>,
    /// Cluster core capacity.
    pub total_cores: u64,
    /// Highest sum of in-flight cores ever observed at an admission.
    pub peak_inflight_cores: u64,
    /// Bytes resident across the shard's caches at report time.
    pub resident_bytes: u64,
}

/// One tenant's aggregate service quality.
#[derive(Clone, Debug)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Submissions completed.
    pub submissions: usize,
    /// Makespan percentiles, seconds.
    pub p50_makespan_s: f64,
    /// 95th percentile makespan, seconds.
    pub p95_makespan_s: f64,
    /// 99th percentile makespan, seconds.
    pub p99_makespan_s: f64,
    /// Mean queue wait, seconds.
    pub mean_queue_wait_s: f64,
    /// Tasks satisfied from warm caches, summed.
    pub memoized_tasks: u64,
    /// Tasks actually executed, summed.
    pub task_executions: u64,
}

/// `q`-th percentile (0..=1) of an unsorted sample, nearest-rank.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("percentile input must not be NaN"));
    let rank = ((q.clamp(0.0, 1.0) * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Fraction of the records' tasks satisfied from warm caches (local or
/// store-prefetched). The sums are integers, so the ratio's bits do not
/// depend on how the records are grouped or ordered.
pub(crate) fn warm_hit_ratio<'a>(records: impl Iterator<Item = &'a SubmissionRecord>) -> f64 {
    let (total, memo) = records.fold((0u64, 0u64), |(total, memo), r| {
        (
            total + r.stats.tasks_total as u64,
            memo + r.stats.memoized_tasks,
        )
    });
    if total == 0 {
        0.0
    } else {
        memo as f64 / total as f64
    }
}

impl FacilityReport {
    /// Fraction of all submitted tasks satisfied from warm caches.
    pub fn warm_hit_ratio(&self) -> f64 {
        warm_hit_ratio(self.records.iter())
    }

    /// When the last run finished (facility clock), seconds.
    pub fn horizon_s(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.finished.as_secs_f64())
            .fold(0.0, f64::max)
    }

    /// Per-tenant aggregates, in tenant order.
    pub fn per_tenant(&self) -> Vec<TenantSummary> {
        self.tenants
            .iter()
            .enumerate()
            .map(|(t, name)| {
                let recs: Vec<&SubmissionRecord> =
                    self.records.iter().filter(|r| r.tenant == t).collect();
                let makespans: Vec<f64> = recs.iter().map(|r| r.makespan.as_secs_f64()).collect();
                let waits: Vec<f64> = recs.iter().map(|r| r.queue_wait().as_secs_f64()).collect();
                TenantSummary {
                    name: name.clone(),
                    submissions: recs.len(),
                    p50_makespan_s: percentile(&makespans, 0.50),
                    p95_makespan_s: percentile(&makespans, 0.95),
                    p99_makespan_s: percentile(&makespans, 0.99),
                    mean_queue_wait_s: if waits.is_empty() {
                        0.0
                    } else {
                        waits.iter().sum::<f64>() / waits.len() as f64
                    },
                    memoized_tasks: recs.iter().map(|r| r.stats.memoized_tasks).sum(),
                    task_executions: recs.iter().map(|r| r.stats.task_executions).sum(),
                }
            })
            .collect()
    }

    /// Fold the whole report into a metrics registry. The registry's
    /// text export is sorted by name, hence deterministic.
    pub fn to_metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        m.counter_add("facility.submissions", self.records.len() as u64);
        m.counter_add(
            "facility.completed",
            self.records.iter().filter(|r| r.completed).count() as u64,
        );
        m.counter_add(
            "facility.memoized_tasks",
            self.records.iter().map(|r| r.stats.memoized_tasks).sum(),
        );
        m.counter_add(
            "facility.task_executions",
            self.records.iter().map(|r| r.stats.task_executions).sum(),
        );
        m.counter_add(
            "facility.warm_hit_bytes",
            self.records.iter().map(|r| r.stats.warm_hit_bytes).sum(),
        );
        m.counter_add("facility.peak_inflight_cores", self.peak_inflight_cores);
        m.counter_add("facility.resident_bytes", self.resident_bytes);
        m.gauge_set("facility.warm_hit_ratio", self.warm_hit_ratio());
        m.gauge_set("facility.horizon_s", self.horizon_s());
        for s in self.per_tenant() {
            let k = |suffix: &str| format!("tenant.{}.{suffix}", s.name);
            m.counter_add(&k("submissions"), s.submissions as u64);
            m.counter_add(&k("memoized_tasks"), s.memoized_tasks);
            m.counter_add(&k("task_executions"), s.task_executions);
            m.gauge_set(&k("p50_makespan_s"), s.p50_makespan_s);
            m.gauge_set(&k("p95_makespan_s"), s.p95_makespan_s);
            m.gauge_set(&k("p99_makespan_s"), s.p99_makespan_s);
            m.gauge_set(&k("mean_queue_wait_s"), s.mean_queue_wait_s);
        }
        m
    }

    /// One CSV row per submission (seq order), stable header first.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "seq,tenant,label,arrival_s,admitted_s,finished_s,queue_wait_s,makespan_s,\
             tasks_total,task_executions,memoized_tasks,warm_hit_bytes,overlap_bytes,\
             store_files,store_bytes,store_fetch_s,completed\n",
        );
        for r in &self.records {
            out.push_str(&format!(
                "{},{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{},{},{},{},{},{},{:.6},{}\n",
                r.seq,
                self.tenants[r.tenant],
                r.label,
                r.arrival.as_secs_f64(),
                r.admitted.as_secs_f64(),
                r.finished.as_secs_f64(),
                r.queue_wait().as_secs_f64(),
                r.makespan.as_secs_f64(),
                r.stats.tasks_total,
                r.stats.task_executions,
                r.stats.memoized_tasks,
                r.stats.warm_hit_bytes,
                r.overlap_bytes,
                r.store_fetched_files,
                r.store_fetch_bytes,
                r.store_fetch.as_secs_f64(),
                r.completed,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 3.0);
        assert_eq!(percentile(&v, 0.95), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
