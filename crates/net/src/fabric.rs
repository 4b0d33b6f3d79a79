//! Engine-driven flow-level network simulation.
//!
//! [`Fabric`] tracks a set of active flows and their max–min fair rates.
//! The owning simulation engine drives it with four calls:
//!
//! 1. [`Fabric::start_flow`] when a transfer begins;
//! 2. [`Fabric::next_completion`] to learn when the earliest active flow
//!    will finish at current rates (an O(1) read: the answer is computed
//!    once, at the end of each recompute);
//! 3. [`Fabric::complete_flow`] at that instant;
//! 4. [`Fabric::cancel_flow`] when an endpoint dies mid-transfer
//!    (worker preemption).
//!
//! Every mutation first advances all in-flight flows to the current
//! instant, so progress made at old rates is preserved when the allocation
//! changes. The engine keeps exactly one "flow completion" event scheduled
//! and reschedules it whenever `next_completion()` moves.

use vine_simcore::{SimDur, SimTime};

use crate::fairshare::{max_min_fair_into, FairScratch, FlowSpec};

/// Identifies a node (endpoint) attached to the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies an active flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FlowId(u64);

/// Completed/cancelled flow summary, for transfer accounting (Fig 7).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowRecord {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Bytes actually delivered (equals size unless cancelled).
    pub bytes_moved: u64,
    /// Total size requested.
    pub size: u64,
    /// When the flow started.
    pub started: SimTime,
}

#[derive(Clone, Debug)]
struct Flow {
    src: NodeId,
    dst: NodeId,
    size: f64,
    remaining: f64,
    rate: f64,
    rate_cap: f64,
    started: SimTime,
}

/// A star-topology fabric with per-node egress/ingress access links.
pub struct Fabric {
    /// Capacity per link, bytes/second. Link layout: node i egress = 2i,
    /// ingress = 2i + 1. Kept current by `add_node` and
    /// `set_node_bandwidth`, so a recompute never rebuilds it.
    link_caps: Vec<f64>,
    /// Active flows in ascending-id order. Ids are handed out
    /// monotonically, so inserts are appends and the order — which fixes
    /// float-summation and tie-break behaviour — matches the ordered map
    /// this replaced.
    flows: Vec<(FlowId, Flow)>,
    next_flow_id: u64,
    /// Instant to which all flow progress has been advanced.
    now: SimTime,
    /// Earliest projected `(finish, flow)` at `now` and current rates;
    /// refreshed whenever `now`, the rates or the flow set change.
    earliest: Option<(SimTime, FlowId)>,
    /// Reusable buffers for `recompute_rates`, which runs on every
    /// flow-set change and dominated allocation in the hot path.
    spec_scratch: Vec<FlowSpec>,
    rate_scratch: Vec<f64>,
    fair_scratch: FairScratch,
}

impl Fabric {
    /// An empty fabric.
    pub fn new() -> Self {
        Fabric {
            link_caps: Vec::new(),
            flows: Vec::new(),
            next_flow_id: 0,
            now: SimTime::ZERO,
            earliest: None,
            spec_scratch: Vec::new(),
            rate_scratch: Vec::new(),
            fair_scratch: FairScratch::default(),
        }
    }

    /// Index of `id` in the sorted flow list.
    fn flow_index(&self, id: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&id, |e| e.0)
    }

    /// Attach a node with the given egress/ingress link capacities
    /// (bytes/second; `f64::INFINITY` allowed).
    pub fn add_node(&mut self, egress_bw: f64, ingress_bw: f64) -> NodeId {
        self.link_caps.push(egress_bw);
        self.link_caps.push(ingress_bw);
        NodeId(self.node_count() - 1)
    }

    /// Attach a node with a symmetric access link.
    pub fn add_symmetric_node(&mut self, bw: f64) -> NodeId {
        self.add_node(bw, bw)
    }

    /// Number of attached nodes.
    pub fn node_count(&self) -> usize {
        self.link_caps.len() / 2
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The current rate of an active flow, bytes/second.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flow_index(id).ok().map(|i| self.flows[i].1.rate)
    }

    /// Begin moving `bytes` from `src` to `dst` at `now`, with an optional
    /// per-flow rate cap (e.g. a shared-FS per-stream limit).
    ///
    /// # Panics
    /// If `src == dst` (local data never crosses the fabric) or a node id
    /// is unknown.
    pub fn start_flow(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        rate_cap: f64,
    ) -> FlowId {
        assert!(src != dst, "intra-node transfers do not use the fabric");
        assert!(src.0 < self.node_count() && dst.0 < self.node_count());
        self.advance(now);
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        debug_assert!(self.flows.last().is_none_or(|&(last, _)| last < id));
        self.flows.push((
            id,
            Flow {
                src,
                dst,
                size: bytes as f64,
                remaining: bytes as f64,
                rate: 0.0,
                rate_cap,
                started: now,
            },
        ));
        self.recompute_rates();
        id
    }

    /// Projected `(time, flow)` of the earliest completion at current
    /// rates, or `None` if no flows are active. Stalled flows (rate 0)
    /// never complete and are skipped.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        self.earliest
    }

    /// Complete `id` at `now` (which must be at or after its projected
    /// completion). Returns the flow's record.
    ///
    /// # Panics
    /// If the flow is unknown.
    pub fn complete_flow(&mut self, now: SimTime, id: FlowId) -> FlowRecord {
        self.advance(now);
        let i = self.flow_index(id).expect("unknown flow");
        let (_, f) = self.flows.remove(i);
        debug_assert!(
            // Tolerance: one microsecond of drain at the final rate, plus
            // relative float error.
            f.remaining <= f.size * 1e-9 + f.rate * 2e-6 + 1.0,
            "flow completed with {} bytes remaining",
            f.remaining
        );
        self.recompute_rates();
        FlowRecord {
            src: f.src,
            dst: f.dst,
            bytes_moved: f.size as u64,
            size: f.size as u64,
            started: f.started,
        }
    }

    /// Abort `id` at `now` (endpoint died). Returns a record with the bytes
    /// actually delivered so far.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<FlowRecord> {
        self.advance(now);
        let Ok(i) = self.flow_index(id) else {
            // `advance` moved time, so the projection must follow it.
            self.earliest = self.scan_earliest();
            return None;
        };
        let (_, f) = self.flows.remove(i);
        self.recompute_rates();
        Some(FlowRecord {
            src: f.src,
            dst: f.dst,
            bytes_moved: (f.size - f.remaining).max(0.0) as u64,
            size: f.size as u64,
            started: f.started,
        })
    }

    /// Cancel every flow touching `node` (worker preempted). Returns their
    /// records.
    pub fn cancel_flows_touching(&mut self, now: SimTime, node: NodeId) -> Vec<FlowRecord> {
        self.advance(now);
        // The flow list is id-sorted and `retain` visits in order, so the
        // record order is deterministic without an explicit sort.
        let mut records = Vec::new();
        self.flows.retain(|(_, f)| {
            if f.src != node && f.dst != node {
                return true;
            }
            records.push(FlowRecord {
                src: f.src,
                dst: f.dst,
                bytes_moved: (f.size - f.remaining).max(0.0) as u64,
                size: f.size as u64,
                started: f.started,
            });
            false
        });
        self.recompute_rates();
        records
    }

    /// Replace a node's access-link capacities mid-run (chaos slowdown,
    /// degradation, or partition when both are zero). In-flight flows
    /// keep the bytes already delivered at the old allocation and are
    /// re-shared under the new one; a flow squeezed to rate 0 stalls —
    /// [`Fabric::next_completion`] ignores it until capacity returns —
    /// rather than being lost. The caller must reschedule its completion
    /// event afterwards.
    pub fn set_node_bandwidth(
        &mut self,
        now: SimTime,
        node: NodeId,
        egress_bw: f64,
        ingress_bw: f64,
    ) {
        self.advance(now);
        self.link_caps[node.0 * 2] = egress_bw.max(0.0);
        self.link_caps[node.0 * 2 + 1] = ingress_bw.max(0.0);
        self.recompute_rates();
    }

    /// The node's current (egress, ingress) access-link capacities.
    pub fn node_bandwidth(&self, node: NodeId) -> (f64, f64) {
        (self.link_caps[node.0 * 2], self.link_caps[node.0 * 2 + 1])
    }

    /// Advance in-flight progress to `now` at current rates.
    fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "fabric time moved backwards");
        let dt = now.saturating_since(self.now).as_secs_f64();
        if dt > 0.0 {
            for (_, f) in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.now = now;
    }

    /// Recompute the max–min fair allocation over all active flows, then
    /// the earliest completion under it.
    fn recompute_rates(&mut self) {
        // Deterministic flow order: the list is id-sorted.
        self.spec_scratch.clear();
        self.spec_scratch
            .extend(self.flows.iter().map(|(_, f)| FlowSpec {
                egress_link: f.src.0 * 2,
                ingress_link: f.dst.0 * 2 + 1,
                rate_cap: f.rate_cap,
            }));
        max_min_fair_into(
            &self.spec_scratch,
            &self.link_caps,
            &mut self.rate_scratch,
            &mut self.fair_scratch,
        );
        for ((_, f), &r) in self.flows.iter_mut().zip(&self.rate_scratch) {
            f.rate = r;
        }
        self.earliest = self.scan_earliest();
    }

    /// The earliest projected `(finish, flow)` by a full scan.
    fn scan_earliest(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for &(id, ref f) in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            // Round up to the next microsecond so the flow is always fully
            // drained (never early) when the completion event fires.
            let finish =
                self.now + SimDur::from_micros((f.remaining / f.rate * 1e6).ceil().max(0.0) as u64);
            match best {
                // Tie-break on FlowId for determinism.
                Some((bt, bid)) if (finish, id) >= (bt, bid) => {}
                _ => best = Some((finish, id)),
            }
        }
        best
    }
}

impl Default for Fabric {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// The cached `next_completion` equals a fresh full scan.
    fn assert_cache_fresh(fab: &Fabric) {
        assert_eq!(fab.next_completion(), fab.scan_earliest());
    }

    #[test]
    fn cached_completion_tracks_every_mutation() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let c = fab.add_node(70.0, 30.0);
        let d = fab.add_symmetric_node(1e3);
        let f1 = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        assert_cache_fresh(&fab);
        // 1000 B at 100 B/s, then 22,932 µs pass with no rate change: the
        // rounded-up projection moves by one microsecond, so the cache
        // must be refreshed even though no flow changed.
        assert_eq!(fab.next_completion(), Some((t(10.0), f1)));
        assert!(fab
            .cancel_flow(SimTime::from_micros(22_932), FlowId(99))
            .is_none());
        assert_eq!(
            fab.next_completion(),
            Some((SimTime::from_micros(10_000_001), f1))
        );
        assert_cache_fresh(&fab);

        let f2 = fab.start_flow(t(0.5), a, c, 400, f64::INFINITY);
        assert_cache_fresh(&fab);
        let f3 = fab.start_flow(t(0.7), d, c, 5000, 25.0);
        assert_cache_fresh(&fab);
        let f4 = fab.start_flow(t(0.9), c, d, 300, f64::INFINITY);
        assert_cache_fresh(&fab);
        fab.start_flow(t(1.0), b, d, 2000, f64::INFINITY);
        assert_cache_fresh(&fab);

        let (at, id) = fab.next_completion().expect("flows are moving");
        assert_eq!(id, f4, "300 B at up to 70 B/s finishes first");
        fab.complete_flow(at, id);
        assert_cache_fresh(&fab);

        assert!(fab.cancel_flow(at + SimDur::from_micros(1), f2).is_some());
        assert_cache_fresh(&fab);
        assert!(fab.cancel_flow(at + SimDur::from_micros(777), f2).is_none());
        assert_cache_fresh(&fab);

        // Partition `d` and restore it.
        fab.set_node_bandwidth(at + SimDur::from_micros(1000), d, 0.0, 0.0);
        assert_eq!(fab.flow_rate(f3), Some(0.0));
        assert_cache_fresh(&fab);
        fab.set_node_bandwidth(at + SimDur::from_micros(5000), d, 1e3, 1e3);
        assert_cache_fresh(&fab);

        let records = fab.cancel_flows_touching(at + SimDur::from_micros(6000), c);
        assert_eq!(records.len(), 1, "only {f3:?} still touches c");
        assert_cache_fresh(&fab);

        // Drain what is left; the last flow leaving empties the cache.
        while let Some((at, id)) = fab.next_completion() {
            fab.complete_flow(at, id);
            assert_cache_fresh(&fab);
        }
        assert_eq!(fab.active_flows(), 0);
        assert_eq!(fab.next_completion(), None);
    }

    #[test]
    fn single_flow_completes_at_size_over_rate() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((finish.as_secs_f64() - 10.0).abs() < 1e-6);
        let rec = fab.complete_flow(finish, id);
        assert_eq!(rec.bytes_moved, 1000);
        assert_eq!(fab.active_flows(), 0);
    }

    #[test]
    fn partition_stalls_then_resumes_a_flow() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        // 5 s at 100 B/s: 500 bytes delivered, then the link partitions.
        fab.set_node_bandwidth(t(5.0), b, 0.0, 0.0);
        assert_eq!(fab.flow_rate(id), Some(0.0));
        assert_eq!(fab.next_completion(), None, "stalled flows never finish");
        // 20 s of darkness preserve the delivered prefix.
        fab.set_node_bandwidth(t(25.0), b, 100.0, 100.0);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((finish.as_secs_f64() - 30.0).abs() < 1e-5, "{finish}");
        assert_eq!(fab.node_bandwidth(b), (100.0, 100.0));
        let rec = fab.complete_flow(finish, id);
        assert_eq!(rec.bytes_moved, 1000);
    }

    #[test]
    fn degraded_link_slows_a_flow_proportionally() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        // Halfway through, the receiver's link degrades to 10 %.
        fab.set_node_bandwidth(t(5.0), b, 10.0, 10.0);
        assert!((fab.flow_rate(id).unwrap() - 10.0).abs() < 1e-9);
        let (finish, _) = fab.next_completion().unwrap();
        // 500 bytes at 10 B/s: finishes at 5 + 50 = 55 s.
        assert!((finish.as_secs_f64() - 55.0).abs() < 1e-5, "{finish}");
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let mut fab = Fabric::new();
        let src = fab.add_symmetric_node(100.0);
        let d1 = fab.add_symmetric_node(1000.0);
        let d2 = fab.add_symmetric_node(1000.0);
        // Both flows leave `src`: 50 B/s each.
        let f1 = fab.start_flow(SimTime::ZERO, src, d1, 500, f64::INFINITY);
        let f2 = fab.start_flow(SimTime::ZERO, src, d2, 1000, f64::INFINITY);
        assert!((fab.flow_rate(f1).unwrap() - 50.0).abs() < 1e-6);
        // f1 finishes at t=10; f2 has 500 left, then gets 100 B/s -> +5 s.
        let (t1, id1) = fab.next_completion().unwrap();
        assert_eq!(id1, f1);
        assert!((t1.as_secs_f64() - 10.0).abs() < 1e-6);
        fab.complete_flow(t1, f1);
        assert!((fab.flow_rate(f2).unwrap() - 100.0).abs() < 1e-6);
        let (t2, id2) = fab.next_completion().unwrap();
        assert_eq!(id2, f2);
        assert!((t2.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn rate_cap_respected() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(1e9);
        let b = fab.add_symmetric_node(1e9);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1_000_000, 1e6);
        assert!((fab.flow_rate(id).unwrap() - 1e6).abs() < 1.0);
    }

    #[test]
    fn cancel_reports_partial_bytes() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        let rec = fab.cancel_flow(t(4.0), id).unwrap();
        assert_eq!(rec.bytes_moved, 400);
        assert_eq!(rec.size, 1000);
        assert!(fab.cancel_flow(t(5.0), id).is_none());
    }

    #[test]
    fn cancel_flows_touching_node() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let c = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        fab.start_flow(SimTime::ZERO, b, c, 1000, f64::INFINITY);
        fab.start_flow(SimTime::ZERO, a, c, 1000, f64::INFINITY);
        let records = fab.cancel_flows_touching(t(1.0), b);
        assert_eq!(records.len(), 2);
        assert_eq!(fab.active_flows(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        let b = fab.add_symmetric_node(100.0);
        let id = fab.start_flow(t(3.0), a, b, 0, f64::INFINITY);
        let (finish, fid) = fab.next_completion().unwrap();
        assert_eq!(fid, id);
        assert_eq!(finish, t(3.0));
    }

    #[test]
    fn stalled_flow_never_completes() {
        let mut fab = Fabric::new();
        let a = fab.add_node(0.0, 100.0); // zero egress
        let b = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, b, 1000, f64::INFINITY);
        assert!(fab.next_completion().is_none());
    }

    #[test]
    #[should_panic(expected = "intra-node")]
    fn self_flow_panics() {
        let mut fab = Fabric::new();
        let a = fab.add_symmetric_node(100.0);
        fab.start_flow(SimTime::ZERO, a, a, 10, f64::INFINITY);
    }

    #[test]
    fn progress_preserved_across_rate_changes() {
        let mut fab = Fabric::new();
        let src = fab.add_symmetric_node(100.0);
        let d1 = fab.add_symmetric_node(1000.0);
        let d2 = fab.add_symmetric_node(1000.0);
        let f1 = fab.start_flow(SimTime::ZERO, src, d1, 1000, f64::INFINITY);
        // At t=5 a second flow arrives; f1 has moved 500 bytes at 100 B/s.
        fab.start_flow(t(5.0), src, d2, 10_000, f64::INFINITY);
        // f1: 500 left at 50 B/s -> finishes at t=15.
        let (finish, id) = fab.next_completion().unwrap();
        assert_eq!(id, f1);
        assert!((finish.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn manager_uplink_bottleneck_scenario() {
        // 10 workers each pulling 1 GB from the manager over its 1 GB/s
        // uplink: every flow gets 0.1 GB/s, all complete at t=10.
        let mut fab = Fabric::new();
        let mgr = fab.add_symmetric_node(1e9);
        let workers: Vec<NodeId> = (0..10).map(|_| fab.add_symmetric_node(1e9)).collect();
        let ids: Vec<FlowId> = workers
            .iter()
            .map(|&w| fab.start_flow(SimTime::ZERO, mgr, w, 1_000_000_000, f64::INFINITY))
            .collect();
        for &id in &ids {
            assert!((fab.flow_rate(id).unwrap() - 1e8).abs() < 10.0);
        }
        let (finish, _) = fab.next_completion().unwrap();
        assert!((finish.as_secs_f64() - 10.0).abs() < 1e-3);
    }

    #[test]
    fn peer_pairs_run_at_full_rate() {
        let mut fab = Fabric::new();
        let nodes: Vec<NodeId> = (0..20).map(|_| fab.add_symmetric_node(1e9)).collect();
        let ids: Vec<FlowId> = (0..10)
            .map(|i| {
                fab.start_flow(
                    SimTime::ZERO,
                    nodes[2 * i],
                    nodes[2 * i + 1],
                    1_000_000_000,
                    f64::INFINITY,
                )
            })
            .collect();
        for &id in &ids {
            assert!((fab.flow_rate(id).unwrap() - 1e9).abs() < 10.0);
        }
    }
}
